// Package dist implements a genuinely distributed sparse solver on the
// goroutine message-passing runtime (internal/mpi): partitioned block
// matrices with ghost-column halos, distributed vector operations with
// global reductions, and a distributed right-preconditioned GMRES with
// block Jacobi ILU(k) subdomain solves. It executes the same
// decomposed algorithm that internal/core models on the virtual
// machine, and the tests validate it against the sequential solver —
// closing the loop on the "MPI substrate" substitution.
package dist

import (
	"fmt"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// Matrix is one rank's share of a partitioned BCSR matrix: the owned
// block rows, with column indices renumbered into local-extended space
// (owned rows first in ascending global order, then ghosts in ascending
// global order).
type Matrix struct {
	Comm *mpi.Comm
	B    int

	Owned  []int32 // ascending global block rows owned by this rank
	Ghosts []int32 // ascending global block rows read but not owned

	local *sparse.BCSR // NB = len(Owned), cols in extended numbering

	// Interior/boundary row split, fixed at plan time: interior rows
	// reference only owned columns, so they can be computed while the
	// ghost exchange is in flight; boundary rows need ghost values and
	// run after it. innerNNZB/bndNNZB count each set's stored blocks
	// (they sum to the local matrix's total, so the split's flop
	// accounting matches one full MulVec exactly).
	interior  []int32
	boundary  []int32
	innerNNZB int
	bndNNZB   int

	// Halo exchange plan with persistent staging buffers.
	halo *Halo

	// extBuf is the persistent extended vector (owned prefix + ghost
	// tail) reused by every MulVec — the hot path must not allocate.
	extBuf []float64

	// NoOverlap selects the pre-overlap blocking scatter (one
	// PhaseScatter span folding the synchronization wait into the
	// exchange) instead of the default overlapped path. The two paths
	// are bitwise identical; the blocking one exists as the measured
	// baseline the paper's Table 3 analysis starts from.
	NoOverlap bool

	// Diagonal block (owned x owned) for the block Jacobi factorization,
	// and the factorization BlockJacobi retains (with the options it was
	// built for) so a later call refactors it in place.
	diag   *sparse.BCSR
	bj     *ilu.Factorization
	bjOpts ilu.Options

	// Refresh state: the global pattern NewMatrix analysed, and for each
	// block of local and diag the global block it is copied from.
	pattern  sparse.Pattern
	localSrc []int32
	diagSrc  []int32

	// Node-level worker pool (SetPool) with precomputed
	// nonzero-balanced stripe bounds for the interior/boundary row sets
	// and the reusable SpMV task.
	pool                 *par.Pool
	intBounds, bndBounds []int32
	rowsT                rowsTask

	// What a sequence of solves on this Matrix reuses: GMRES's Krylov
	// workspace, and NewtonSolve's local right-hand side and correction.
	// They live and die with the Matrix, which serves one solve at a time.
	ws     krylov.Workspace
	lb, lx []float64

	// Prof, when non-nil, receives this rank's measured phase timings
	// (scatter, matvec, reduce, tri_solve). Each rank runs on its own
	// goroutine, so each rank must have its own profiler; merge them
	// with prof.Merge after mpi.Run returns. The process-wide
	// prof.Default is NOT used here — it assumes single-goroutine
	// nesting.
	Prof *prof.Profiler
}

// NewMatrix extracts rank c.Rank()'s share of the global matrix a under
// the block-row partition part (len a.NB). Every rank calls it with the
// same a and part (SPMD); the halo plan is negotiated over the
// communicator.
func NewMatrix(c *mpi.Comm, a *sparse.BCSR, part []int32) (*Matrix, error) {
	if len(part) != a.NB {
		return nil, fmt.Errorf("dist: partition length %d for %d block rows", len(part), a.NB)
	}
	me := int32(c.Rank())
	// Validate every rank's ownership locally (the partition is SPMD
	// data), so all ranks reject a bad partition before any
	// communication — a rank erroring mid-handshake would deadlock its
	// peers.
	counts := make([]int, c.Size())
	for i, q := range part {
		if q < 0 || int(q) >= c.Size() {
			return nil, fmt.Errorf("dist: row %d assigned to invalid rank %d", i, q)
		}
		counts[q]++
	}
	for q, n := range counts {
		if n == 0 {
			return nil, fmt.Errorf("dist: rank %d owns no rows", q)
		}
	}
	m := &Matrix{Comm: c, B: a.B, Owned: make([]int32, 0, counts[me])}
	// Extended-local numbering in one dense array: -1 for rows this rank
	// never reads, the owned rows numbered first in ascending global
	// order, then — by an ascending scan of the rows marked needed — the
	// ghosts.
	const unread, needed = -1, -2
	ext := make([]int32, a.NB)
	for i, q := range part {
		ext[i] = unread
		if q == me {
			ext[i] = int32(len(m.Owned))
			m.Owned = append(m.Owned, int32(i)) //lint:alloc-ok appends into capacity preallocated to the exact owned count
		}
	}
	nOwned := int32(len(m.Owned))
	nGhosts, nnzb, nnzbDiag := 0, 0, 0
	for _, gr := range m.Owned {
		for _, j := range a.ColIdx[a.RowPtr[gr]:a.RowPtr[gr+1]] {
			nnzb++
			switch {
			case ext[j] >= 0:
				nnzbDiag++
			case ext[j] == unread:
				ext[j] = needed
				nGhosts++
			}
		}
	}
	m.Ghosts = make([]int32, 0, nGhosts)
	for g, e := range ext {
		if e == needed {
			ext[g] = nOwned + int32(len(m.Ghosts))
			m.Ghosts = append(m.Ghosts, int32(g)) //lint:alloc-ok appends into capacity preallocated to the exact ghost count
		}
	}
	// Local rows (owned rows, all columns) and the diagonal block (owned
	// columns only), each block with the index of its source in a. A
	// row's owned columns precede its ghost columns in extended
	// numbering and each group is already ascending, so two passes over
	// the global row emit sorted local rows with no sort.
	m.local = &sparse.BCSR{NB: len(m.Owned), B: a.B, RowPtr: make([]int32, nOwned+1), ColIdx: make([]int32, 0, nnzb)}
	m.diag = &sparse.BCSR{NB: len(m.Owned), B: a.B, RowPtr: make([]int32, nOwned+1), ColIdx: make([]int32, 0, nnzbDiag)}
	m.localSrc = make([]int32, 0, nnzb)
	m.diagSrc = make([]int32, 0, nnzbDiag)
	for li, gr := range m.Owned {
		for k := a.RowPtr[gr]; k < a.RowPtr[gr+1]; k++ {
			if e := ext[a.ColIdx[k]]; e < nOwned {
				m.local.ColIdx = append(m.local.ColIdx, e) //lint:alloc-ok appends into exact preallocated capacity at plan construction
				m.localSrc = append(m.localSrc, k)         //lint:alloc-ok appends into exact preallocated capacity at plan construction
				m.diag.ColIdx = append(m.diag.ColIdx, e)   //lint:alloc-ok appends into exact preallocated capacity at plan construction
				m.diagSrc = append(m.diagSrc, k)           //lint:alloc-ok appends into exact preallocated capacity at plan construction
			}
		}
		for k := a.RowPtr[gr]; k < a.RowPtr[gr+1]; k++ {
			if e := ext[a.ColIdx[k]]; e >= nOwned {
				m.local.ColIdx = append(m.local.ColIdx, e) //lint:alloc-ok appends into exact preallocated capacity at plan construction
				m.localSrc = append(m.localSrc, k)         //lint:alloc-ok appends into exact preallocated capacity at plan construction
			}
		}
		m.local.RowPtr[li+1] = int32(len(m.local.ColIdx))
		m.diag.RowPtr[li+1] = int32(len(m.diag.ColIdx))
	}
	bb := a.B * a.B
	m.local.Val = make([]float64, nnzb*bb)
	m.diag.Val = make([]float64, nnzbDiag*bb)
	m.pattern = sparse.PatternOf(a)
	m.gatherValues(a)
	// Interior/boundary split: a row whose columns are all owned
	// (extended-local index below len(Owned)) never reads the ghost
	// tail, so it can be computed while the exchange is in flight.
	for li := 0; li < m.local.NB; li++ {
		inner := true
		for _, j := range m.local.ColIdx[m.local.RowPtr[li]:m.local.RowPtr[li+1]] {
			if j >= nOwned {
				inner = false
				break
			}
		}
		nnzb := int(m.local.RowPtr[li+1] - m.local.RowPtr[li])
		if inner {
			m.interior = append(m.interior, int32(li)) //lint:alloc-ok one-time plan construction at partition setup
			m.innerNNZB += nnzb
		} else {
			m.boundary = append(m.boundary, int32(li)) //lint:alloc-ok one-time plan construction at partition setup
			m.bndNNZB += nnzb
		}
	}
	m.extBuf = make([]float64, (len(m.Owned)+len(m.Ghosts))*a.B)
	// Halo negotiation: send each rank the list of its rows we need,
	// then translate both directions into extended-local numbering.
	needFrom := map[int][]int32{}
	for _, g := range m.Ghosts {
		needFrom[int(part[g])] = append(needFrom[int(part[g])], g) //lint:alloc-ok one-time plan negotiation at partition setup
	}
	asked, err := negotiateHalo(c, needFrom)
	if err != nil {
		return nil, err
	}
	sendTo := map[int][]int32{}
	for q, rows := range asked {
		locs := make([]int32, len(rows)) //lint:alloc-ok one-time plan negotiation at partition setup
		for i, gr := range rows {
			if gr < 0 || int(gr) >= a.NB || part[gr] != me {
				return nil, fmt.Errorf("dist: rank %d asked rank %d for row %d it does not own", q, me, gr)
			}
			locs[i] = ext[gr]
		}
		sendTo[q] = locs
	}
	recvFrom := map[int][]int32{}
	for q, rows := range needFrom {
		if len(rows) == 0 {
			continue
		}
		locs := make([]int32, len(rows)) //lint:alloc-ok one-time plan negotiation at partition setup
		for i, gr := range rows {
			locs[i] = ext[gr]
		}
		recvFrom[q] = locs
	}
	m.halo = newHalo(c, a.B, mpi.TagHalo, sendTo, recvFrom)
	return m, nil
}

// gatherValues copies a's values into local and diag through the
// source indices.
func (m *Matrix) gatherValues(a *sparse.BCSR) {
	bb := m.B * m.B
	sparse.GatherBlocks(m.local.Val, a.Val, m.localSrc, bb)
	sparse.GatherBlocks(m.diag.Val, a.Val, m.diagSrc, bb)
}

// refreshBytes is the value-copy traffic of one NewMatrix or Refresh.
func (m *Matrix) refreshBytes() int64 {
	return sparse.GatherBlocksBytes(len(m.localSrc)+len(m.diagSrc), m.B)
}

// Refresh reloads this rank's share from a, which must have exactly the
// sparsity pattern NewMatrix analysed (anything else is an error and
// leaves the matrix untouched). It is an indexed copy of every stored
// value — bitwise what a fresh NewMatrix(a) holds — that allocates
// nothing and sends nothing: the halo plan, the interior/boundary
// split and the pool stripes depend on the pattern alone and are kept.
// The block Jacobi factors are not touched; call BlockJacobi again.
func (m *Matrix) Refresh(a *sparse.BCSR) error {
	if err := m.pattern.Check(a); err != nil {
		return fmt.Errorf("dist: refresh: %w", err)
	}
	m.gatherValues(a)
	return nil
}

// LocalN returns the number of owned scalar unknowns.
func (m *Matrix) LocalN() int { return len(m.Owned) * m.B }

// Scatter fills the ghost region of the extended vector xExt (length
// LocalN()+len(Ghosts)*B) from the owning ranks, blocking until done;
// the owned prefix must already hold this rank's values. The wait is
// folded into the scatter phase — use the overlapped MulVec to measure
// it separately.
func (m *Matrix) Scatter(xExt []float64) error {
	return m.halo.Exchange(m.Prof, xExt)
}

// MulVec computes the owned part of y = A x, where x and y are local
// owned vectors (length LocalN()); one halo exchange per call. By
// default the exchange is overlapped with the interior rows (post,
// compute interior, wait, compute boundary — the paper's first-order
// scatter fix); NoOverlap selects the blocking baseline. Both paths
// produce bitwise-identical y: they run the same per-row kernels, and
// each row's dot product is independent of the order rows are visited.
func (m *Matrix) MulVec(x, y []float64) error {
	if m.NoOverlap {
		return m.mulVecBlocking(x, y)
	}
	sp := m.Prof.Begin(prof.PhaseMatVec)
	defer sp.End(0, 0) // the work is charged by the nested interior/boundary spans
	ext := m.extBuf
	copy(ext, x[:m.LocalN()])
	if err := m.halo.Start(m.Prof, ext); err != nil {
		return err
	}
	m.Prof.NoteThreads(prof.PhaseMatVec, m.pool.Workers())
	isp := m.Prof.Begin(prof.PhaseInterior)
	m.mulRows(m.interior, m.intBounds, ext, y)
	isp.End(sparse.MulVecRowsFlops(m.innerNNZB, m.B), sparse.MulVecRowsBytes(m.innerNNZB, len(m.interior), m.B))
	if err := m.halo.Finish(m.Prof, ext); err != nil {
		return err
	}
	bsp := m.Prof.Begin(prof.PhaseBoundary)
	m.mulRows(m.boundary, m.bndBounds, ext, y)
	bsp.End(sparse.MulVecRowsFlops(m.bndNNZB, m.B), sparse.MulVecRowsBytes(m.bndNNZB, len(m.boundary), m.B))
	return nil
}

// mulVecBlocking is the pre-overlap baseline: one blocking scatter,
// then the full local product.
func (m *Matrix) mulVecBlocking(x, y []float64) error {
	sp := m.Prof.Begin(prof.PhaseMatVec)
	defer sp.End(m.local.MulVecFlops(), m.local.MulVecBytes())
	ext := m.extBuf
	copy(ext, x[:m.LocalN()])
	if err := m.Scatter(ext); err != nil {
		return err
	}
	m.local.MulVec(ext, y)
	return nil
}

// BlockJacobi factors this rank's diagonal block with ILU(k) and
// returns the local preconditioner solve. The factorization is retained:
// a later call with the same options (after a Refresh) refactors it in
// place, and solves returned earlier then apply the new factors.
func (m *Matrix) BlockJacobi(opts ilu.Options) (func(r, z []float64), error) {
	if m.bj != nil && m.bjOpts == opts {
		if err := m.bj.Refactor(m.diag); err != nil {
			return nil, err
		}
	} else {
		f, err := ilu.Factor(m.diag, opts)
		if err != nil {
			return nil, err
		}
		m.bj, m.bjOpts = f, opts
	}
	f := m.bj
	return func(r, z []float64) {
		sp := m.Prof.Begin(prof.PhaseTriSolve)
		m.Prof.NoteThreads(prof.PhaseTriSolve, m.pool.Workers())
		f.SolvePar(m.pool, r, z)
		sp.End(f.SolveFlops(), f.SolveBytes())
	}, nil
}
