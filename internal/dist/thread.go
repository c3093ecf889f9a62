package dist

import "petscfun3d/internal/par"

// Node-level threading of the rank-local kernels. The diagonal block's
// product is sparse.BCSR.MulVecPar's; the boundary rows of the
// ghost-column pass are cut into one contiguous stripe per worker, with
// stripe boundaries balanced by stored-block count so skewed rows do
// not serialize the sweep. Each owned row is written by exactly one
// worker with the sequential per-row kernel, so the product — and
// therefore the whole hybrid ranks×threads residual history — is
// bitwise identical to the sequential run.

// SetPool attaches a node-level worker pool to this rank's kernels
// (SpMV stripes, triangular solves, reductions) and precomputes the
// nonzero-balanced stripe bounds of the boundary rows. A nil pool
// restores sequential execution. The pool serves one rank: in a
// multi-rank world each rank goroutine needs its own pool.
func (m *Matrix) SetPool(p *par.Pool) {
	m.pool, m.bndBounds = p, nil
	if nw := p.Workers(); nw > 1 {
		prefix := make([]int32, len(m.boundary)+1)
		for i, r := range m.boundary {
			prefix[i+1] = prefix[i] + (m.off.RowPtr[r+1] - m.off.RowPtr[r])
		}
		m.bndBounds = make([]int32, nw+1)
		par.Stripes(prefix, nw, m.bndBounds)
	}
}

// addGhostColumns resumes y += off·x over the boundary rows — striped
// over the pool when one is attached, sequentially otherwise.
func (m *Matrix) addGhostColumns(x, y []float64) {
	if len(m.bndBounds) == 0 {
		m.off.MulVecAddRows(m.boundary, x, y)
		return
	}
	t := &m.rowsT
	t.m, t.x, t.y = m, x, y
	m.pool.Run(t)
	t.x, t.y = nil, nil
}

// rowsTask is the reusable pool task of addGhostColumns: one
// nonzero-balanced stripe of the boundary rows per worker.
type rowsTask struct {
	m    *Matrix
	x, y []float64
}

// RunShard implements par.Task.
func (t *rowsTask) RunShard(w, nw int) {
	m := t.m
	if lo, hi := m.bndBounds[w], m.bndBounds[w+1]; lo < hi {
		m.off.MulVecAddRows(m.boundary[lo:hi], t.x, t.y)
	}
}
