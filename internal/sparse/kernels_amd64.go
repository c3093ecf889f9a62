package sparse

import "petscfun3d/internal/cpuid"

// The AVX2 family (kernels_amd64.s): the unrolled b = 4 and b = 5
// products vectorised across the rows of a column-major block, with the
// Go kernels' arguments. The assembly reads RowPtr and Val unchecked once
// walkable holds, and checks every index it reads through the matrix: it
// returns the position of the first row it cannot walk, and the Go
// kernel resumes there — doing nothing on a well-formed matrix, and
// panicking on a malformed one as it always did.

//go:noescape
func mulVec4AVX2(rowPtr, colIdx []int32, val []float64, rows []int32, lo, hi, nb, ncol int, add bool, x, y []float64) int

//go:noescape
func mulVec5AVX2(rowPtr, colIdx []int32, val []float64, rows []int32, lo, hi, nb, ncol int, add bool, x, y []float64) int

// walkable reports whether a's row pointers and values are as long as
// its shape says.
func (a *BCSR) walkable() bool {
	return len(a.RowPtr) == a.NB+1 && len(a.Val) >= len(a.ColIdx)*a.B*a.B
}

func mulVec4Asm(a *BCSR, rows []int32, lo, hi int, add bool, x, y []float64) {
	if a.walkable() {
		lo = mulVec4AVX2(a.RowPtr, a.ColIdx, a.Val, rows, lo, hi, a.NB, len(x)/4, add, x, y)
	}
	a.mulVec4(rows, lo, hi, add, x, y)
}

func mulVec5Asm(a *BCSR, rows []int32, lo, hi int, add bool, x, y []float64) {
	if a.walkable() {
		lo = mulVec5AVX2(a.RowPtr, a.ColIdx, a.Val, rows, lo, hi, a.NB, len(x)/5, add, x, y)
	}
	a.mulVec5(rows, lo, hi, add, x, y)
}

func init() {
	if !cpuid.AVX2 {
		return
	}
	avx2Kernels = &spmvKernels{name: "AVX2", mulVec4: mulVec4Asm, mulVec5: mulVec5Asm}
	kern = avx2Kernels
}
