package ilu

// blockKernels is one family of the unrolled kernels of the paper's block
// sizes: the elimination's row kernels (the load of A's row, the update
// by one L block, the pivot's inversion, the rounding of a finished row
// into float32 storage) and the triangular solves' row kernels in each
// storage precision. Every family computes the same bits (each entry a
// sum from +0 in ascending k, the operands in the Go kernels' order, no
// fused multiply-add, round to nearest), so which one runs is a property
// of the host, not of the result.
type blockKernels struct {
	name                   string
	loadRow4, loadRow5     func(val, src []float64, cols, slot []int32)
	rowUpdate4, rowUpdate5 func(val []float64, factor, uLo int, pCols, slot []int32)
	invert4, invert5       func(blk, aug []float64) (failed int)
	round32                func(dst []float32, src []float64)
	f64                    sweeps[float64]
	f32                    sweeps[float32]
}

// sweeps is a family's row kernels for one storage precision.
type sweeps[T float32 | float64] struct {
	forward4, forward5   func(val []T, col, lPtr, rows []int32, lo, hi int, b, x []float64)
	backward4, backward5 func(val []T, col, uPtr, rows []int32, lo, hi int, x []float64)
}

// goKernels is the Go family: the oracle, and what runs on every
// architecture and host without an assembly family.
var goKernels = blockKernels{
	name:     "Go",
	loadRow4: loadRow4, loadRow5: loadRow5,
	rowUpdate4: rowUpdate4, rowUpdate5: rowUpdate5,
	invert4: invertBlock4, invert5: invertBlock5,
	round32: round32,
	f64:     sweeps[float64]{forward4[float64], forward5[float64], backward4[float64], backward5[float64]},
	f32:     sweeps[float32]{forward4[float32], forward5[float32], backward4[float32], backward5[float32]},
}

// kern is the family the factorizations run, and avx2Kernels the
// assembly family the host supports (nil without one). Both are set once,
// at package init, from CPUID (kernels_amd64.go) and never change.
var (
	kern        = &goKernels
	avx2Kernels *blockKernels
)

// KernelFamily names the family of block kernels this process runs:
// "AVX2" on amd64 hosts that report it, "Go" everywhere else.
func KernelFamily() string { return kern.name }
