package sparse

import "fmt"

// Layout selects how the b unknowns at each of nv mesh points are laid
// out in a scalar vector of length nv*b.
type Layout int

const (
	// Interlaced stores all unknowns of a mesh point adjacently:
	// u0,v0,w0,p0, u1,v1,w1,p1, ... (PETSc-FUN3D's cache-friendly layout).
	Interlaced Layout = iota
	// NonInterlaced stores each field contiguously:
	// u0,u1,..., v0,v1,..., the original vector-machine-friendly FUN3D
	// layout. A matrix coupling fields then has bandwidth close to N.
	NonInterlaced
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case Interlaced:
		return "interlaced"
	case NonInterlaced:
		return "noninterlaced"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// ScalarIndex maps (mesh point v, component c) to its scalar index under
// layout l, for nv mesh points with b components each.
func ScalarIndex(l Layout, nv, b, v, c int) int {
	if l == Interlaced {
		return v*b + c
	}
	return c*nv + v
}

// ConvertLayout rewrites the vector x (length nv*b) from layout `from`
// into layout `to`, returning a new slice.
func ConvertLayout(x []float64, nv, b int, from, to Layout) []float64 {
	if len(x) != nv*b {
		// Documented precondition: the vector length must match nv*b
		panic(fmt.Sprintf("sparse: ConvertLayout length %d, want %d", len(x), nv*b))
	}
	out := make([]float64, len(x))
	for v := 0; v < nv; v++ {
		for c := 0; c < b; c++ {
			out[ScalarIndex(to, nv, b, v, c)] = x[ScalarIndex(from, nv, b, v, c)]
		}
	}
	return out
}

// Graph is the vertex adjacency of a mesh in compressed form; neighbors
// of v are Adj[XAdj[v]:XAdj[v+1]]. The diagonal (self) coupling is
// implied and added by the pattern builders.
type Graph struct {
	NV   int
	XAdj []int32
	Adj  []int32
}

// BlockPattern builds the BCSR Jacobian sparsity for a PDE system with b
// unknowns per mesh point on graph g: block row v couples to v and its
// neighbors.
func BlockPattern(g Graph, b int) *BCSR {
	rows := make([][]int32, g.NV)
	for v := 0; v < g.NV; v++ {
		nbrs := g.Adj[g.XAdj[v]:g.XAdj[v+1]]
		row := make([]int32, 0, len(nbrs)+1)
		row = append(row, nbrs...)
		row = append(row, int32(v))
		rows[v] = row
	}
	return NewBCSRPattern(g.NV, b, rows)
}

// ScalarPattern builds the scalar CSR Jacobian sparsity for the same
// system under the given vector layout. Every pair of coupled mesh points
// contributes a dense b×b coupling between all their components, so the
// noninterlaced layout produces a matrix of bandwidth close to N = nv*b
// while the interlaced layout keeps bandwidth ≈ b·(graph bandwidth).
func ScalarPattern(g Graph, b int, l Layout) *CSR {
	n := g.NV * b
	a := &CSR{N: n, RowPtr: make([]int32, n+1)}
	// Row of scalar unknown (v, r) has entries at (w, c) for w in
	// {v} ∪ nbrs(v), c in 0..b-1.
	type rowSpec struct {
		v, r int
	}
	rowOf := make([]rowSpec, n)
	for v := 0; v < g.NV; v++ {
		for r := 0; r < b; r++ {
			rowOf[ScalarIndex(l, g.NV, b, v, r)] = rowSpec{v, r}
		}
	}
	cols := make([]int32, 0, 16*b)
	for i := 0; i < n; i++ {
		v := rowOf[i].v
		nbrs := g.Adj[g.XAdj[v]:g.XAdj[v+1]]
		cols = cols[:0]
		for c := 0; c < b; c++ {
			cols = append(cols, int32(ScalarIndex(l, g.NV, b, v, c)))
		}
		for _, w := range nbrs {
			for c := 0; c < b; c++ {
				cols = append(cols, int32(ScalarIndex(l, g.NV, b, int(w), c)))
			}
		}
		insertionSortInt32(cols)
		a.ColIdx = append(a.ColIdx, cols...)
		a.RowPtr[i+1] = int32(len(a.ColIdx))
	}
	a.Val = make([]float64, len(a.ColIdx))
	return a
}

func insertionSortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// FillDeterministic fills the matrix values with a reproducible
// pseudo-random diagonally dominant pattern, useful for kernel benchmarks
// that need realistic (nonzero, nonuniform) values.
func (a *CSR) FillDeterministic(seed uint64) {
	s := seed | 1
	for i := 0; i < a.N; i++ {
		var offdiag float64
		diagK := -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.ColIdx[k]) == i {
				diagK = int(k)
				continue
			}
			s = s*6364136223846793005 + 1442695040888963407
			v := float64(int64(s>>20)%2000)/1000.0 - 1.0 // in [-1, 1)
			a.Val[k] = v
			if v < 0 {
				offdiag -= v
			} else {
				offdiag += v
			}
		}
		if diagK >= 0 {
			a.Val[diagK] = offdiag + 1
		}
	}
}

// FillDeterministic fills the block matrix values with a reproducible
// pseudo-random block-diagonally dominant pattern: block entries drawn
// row by row, each stored at its column-major position.
func (a *BCSR) FillDeterministic(seed uint64) {
	s := seed | 1
	b := a.B
	bb := b * b
	rowSums := make([]float64, b)
	for i := 0; i < a.NB; i++ {
		for c := range rowSums {
			rowSums[c] = 0
		}
		diagK := -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.ColIdx[k]) == i {
				diagK = int(k)
				continue
			}
			blk := a.Val[int(k)*bb : int(k+1)*bb]
			for r := 0; r < b; r++ {
				for c := 0; c < b; c++ {
					s = s*6364136223846793005 + 1442695040888963407
					v := float64(int64(s>>20)%2000)/1000.0 - 1.0
					blk[c*b+r] = v
					if v < 0 {
						rowSums[r] -= v
					} else {
						rowSums[r] += v
					}
				}
			}
		}
		if diagK >= 0 {
			blk := a.Block(diagK)
			for r := 0; r < b; r++ {
				for c := 0; c < b; c++ {
					if r == c {
						blk[r*b+c] = rowSums[r] + 1
					} else {
						blk[r*b+c] = 0
					}
				}
			}
		}
	}
}
