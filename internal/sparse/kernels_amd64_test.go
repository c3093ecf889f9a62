package sparse

import (
	"testing"

	"petscfun3d/internal/cpuid"
)

// TestMulVecDispatchFollowsCPUID: the products run the AVX2 family
// exactly where CPUID reports AVX2 and the OS saves its registers, and
// the Go family everywhere else.
func TestMulVecDispatchFollowsCPUID(t *testing.T) {
	if !cpuid.AVX2 {
		if kern != &goKernels || avx2Kernels != nil || KernelFamily() != "Go" {
			t.Fatalf("no AVX2 on this host, but the %s family is chosen", kern.name)
		}
		t.Skip("CPUID reports no AVX2: the Go kernels run, and the assembly half is not exercised on this host")
	}
	if avx2Kernels == nil || kern != avx2Kernels || KernelFamily() != "AVX2" {
		t.Fatalf("the host has AVX2, but the %s family is chosen", kern.name)
	}
}
