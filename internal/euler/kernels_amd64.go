package euler

import "petscfun3d/internal/cpuid"

// The AVX2 family (kernels_amd64.s): the interlaced b = 4 flux sweep with
// the four lanes of a vector on four consecutive edges. It indexes q and
// r without bounds checks — fluxEdges cuts both to N() scalars and
// NewDiscretization checks every endpoint — but checks each idx position
// against len(edges), stopping before the group that holds a bad one so
// that fluxEdges4 reaches it next and panics as it always did.

//go:noescape
func fluxEdges4AVX2(beta float64, edges []edgeData, idx []int32, q, r []float64) int

func init() {
	if !cpuid.AVX2 {
		return
	}
	avx2Kernels = &edgeKernels{name: "AVX2", flux4: fluxEdges4AVX2}
	kern = avx2Kernels
}
