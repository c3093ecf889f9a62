package sparse

import "math"

// BLAS-1 style vector kernels used throughout the solver stack.

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	y = y[:len(x)] // bce: ties len(y) to len(x); the range index serves both streams unchecked
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Permute returns the matrix PAPᵀ for the permutation perm, where
// perm[old] = new: entry (i, j) of a moves to (perm[i], perm[j]). Rows of
// the result are sorted.
func Permute(a *CSR, perm []int32) *CSR {
	b := NewBuilder(a.N)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			b.Set(int(perm[i]), int(perm[a.ColIdx[k]]), a.Val[k])
		}
	}
	return b.Build()
}

// LayoutPerm returns the permutation mapping interlaced scalar indices to
// the given layout's indices: perm[interlaced] = target.
func LayoutPerm(nv, b int, to Layout) []int32 {
	perm := make([]int32, nv*b)
	for v := 0; v < nv; v++ {
		for c := 0; c < b; c++ {
			perm[ScalarIndex(Interlaced, nv, b, v, c)] = int32(ScalarIndex(to, nv, b, v, c))
		}
	}
	return perm
}
