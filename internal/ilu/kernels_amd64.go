package ilu

import "petscfun3d/internal/cpuid"

// The AVX2 family (kernels_amd64.s): the unrolled kernels vectorised
// across the rows of a column-major block. They take the Go kernels'
// arguments, row-list contract included, but index without bounds
// checks: Factor builds the layout they walk, numeric hands the row
// kernels a row of A, slot offsets and a round32 source of dst's length
// that the pattern keeps in range, and Solve and SolvePar cut b and x
// to NB·B scalars first.

//go:noescape
func loadRow4AVX2(val, src []float64, cols, slot []int32)

//go:noescape
func loadRow5AVX2(val, src []float64, cols, slot []int32)

//go:noescape
func rowUpdate4AVX2(val []float64, factor, uLo int, pCols, slot []int32)

//go:noescape
func rowUpdate5AVX2(val []float64, factor, uLo int, pCols, slot []int32)

//go:noescape
func invertBlock4AVX2(blk, aug []float64) int

//go:noescape
func invertBlock5AVX2(blk, aug []float64) int

//go:noescape
func round32AVX2(dst []float32, src []float64)

//go:noescape
func forward4F64AVX2(val []float64, col, lPtr, rows []int32, lo, hi int, b, x []float64)

//go:noescape
func backward4F64AVX2(val []float64, col, uPtr, rows []int32, lo, hi int, x []float64)

//go:noescape
func forward4F32AVX2(val []float32, col, lPtr, rows []int32, lo, hi int, b, x []float64)

//go:noescape
func backward4F32AVX2(val []float32, col, uPtr, rows []int32, lo, hi int, x []float64)

//go:noescape
func forward5F64AVX2(val []float64, col, lPtr, rows []int32, lo, hi int, b, x []float64)

//go:noescape
func backward5F64AVX2(val []float64, col, uPtr, rows []int32, lo, hi int, x []float64)

//go:noescape
func forward5F32AVX2(val []float32, col, lPtr, rows []int32, lo, hi int, b, x []float64)

//go:noescape
func backward5F32AVX2(val []float32, col, uPtr, rows []int32, lo, hi int, x []float64)

func init() {
	if !cpuid.AVX2 {
		return
	}
	avx2Kernels = &blockKernels{
		name:     "AVX2",
		loadRow4: loadRow4AVX2, loadRow5: loadRow5AVX2,
		rowUpdate4: rowUpdate4AVX2, rowUpdate5: rowUpdate5AVX2,
		invert4: invertBlock4AVX2, invert5: invertBlock5AVX2,
		round32: round32AVX2,
		f64:     sweeps[float64]{forward4F64AVX2, forward5F64AVX2, backward4F64AVX2, backward5F64AVX2},
		f32:     sweeps[float32]{forward4F32AVX2, forward5F32AVX2, backward4F32AVX2, backward5F32AVX2},
	}
	kern = avx2Kernels
}
