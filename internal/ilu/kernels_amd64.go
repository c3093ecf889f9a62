package ilu

import "petscfun3d/internal/cpuid"

// The AVX2 family (kernels_amd64.s): the unrolled kernels vectorised
// across the rows of a column-major block. The solve kernels take the Go
// kernels' arguments, row-list contract included, but index without
// bounds checks: Factor builds the layout they walk, and Solve and
// SolvePar cut b and x to NB·B scalars first.

//go:noescape
func mulSub4AVX2(c, a, b []float64)

//go:noescape
func mulSub5AVX2(c, a, b []float64)

//go:noescape
func mulRight4AVX2(a, b []float64)

//go:noescape
func mulRight5AVX2(a, b []float64)

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
		name:    "AVX2",
		mulSub4: mulSub4AVX2, mulSub5: mulSub5AVX2,
		mulRight4: mulRight4AVX2, mulRight5: mulRight5AVX2,
		f64: sweeps[float64]{forward4F64AVX2, forward5F64AVX2, backward4F64AVX2, backward5F64AVX2},
		f32: sweeps[float32]{forward4F32AVX2, forward5F32AVX2, backward4F32AVX2, backward5F32AVX2},
	}
	kern = avx2Kernels
}
