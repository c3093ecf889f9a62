package sparse

// spmvKernels is one family of the unrolled BCSR product kernels of the
// paper's block sizes. Every family computes the Go kernels' bits: per
// block, the row's products summed left to right in ascending block
// column, that sum added once into the row's running value (from +0, or
// from y with add), no fused multiply-add. Which family runs is a
// property of the host, not of the result.
type spmvKernels struct {
	name             string
	mulVec4, mulVec5 func(a *BCSR, rows []int32, lo, hi int, add bool, x, y []float64)
}

// goKernels is the Go family: the oracle, and what runs on every
// architecture and host without an assembly family.
var goKernels = spmvKernels{name: "Go", mulVec4: (*BCSR).mulVec4, mulVec5: (*BCSR).mulVec5}

// kern is the family the products run, and avx2Kernels the assembly
// family the host supports (nil without one). Both are set once, at
// package init, from CPUID (kernels_amd64.go) and never change.
var (
	kern        = &goKernels
	avx2Kernels *spmvKernels
)

// KernelFamily names the family of BCSR product kernels this process
// runs at b = 4 and 5: "AVX2" on amd64 hosts that report it, "Go"
// everywhere else. Other block sizes always run the Go generic kernel.
func KernelFamily() string { return kern.name }

// mulVec runs the family's kernel for a's block size (the row contract
// is the kernels', bcsr.go).
func (k *spmvKernels) mulVec(a *BCSR, rows []int32, lo, hi int, add bool, x, y []float64) {
	switch a.B {
	case 4:
		k.mulVec4(a, rows, lo, hi, add, x, y)
	case 5:
		k.mulVec5(a, rows, lo, hi, add, x, y)
	default:
		a.mulVecGeneric(rows, lo, hi, add, x, y)
	}
}
