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
	"slices"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// Matrix is one rank's share of a partitioned BCSR matrix, stored as
// PETSc stores it: the owned block rows split by column into the
// diagonal block (owned × owned — what block Jacobi factors, and what
// MulVec multiplies while the ghost values are in flight) and the
// off-diagonal block (owned × ghost). Columns are in extended-local
// numbering: owned rows first in ascending global order, then ghosts in
// ascending global order.
type Matrix struct {
	Comm *mpi.Comm
	B    int

	Owned  []int32 // ascending global block rows owned by this rank
	Ghosts []int32 // ascending global block rows read but not owned

	// diag and off have one row per owned row; off's rows are empty
	// except the boundary rows. Their values are consecutive stretches
	// of val — diag's blocks, off's blocks, then one sink block no
	// product reads — so an assembly that addresses val by block index
	// (euler.LocalJacobian) fills both in one sweep, with the blocks of
	// rows this rank does not own all falling into the sink.
	diag, off *sparse.BCSR
	val       []float64
	boundary  []int32 // rows with a ghost column, ascending

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

	// The factorization of diag BlockJacobi retains (with the options it
	// was built for) so a later call refactors it in place.
	bj     *ilu.Factorization
	bjOpts ilu.Options

	// Node-level worker pool (SetPool) with the nonzero-balanced stripe
	// bounds of the boundary rows and the reusable task that sweeps
	// them; diag keeps its own stripes (sparse.BCSR.MulVecPar).
	pool      *par.Pool
	bndBounds []int32
	rowsT     rowsTask

	// What a sequence of solves on this Matrix reuses: GMRES's Krylov
	// workspace, and NewtonSolve's assembly plan, local right-hand side,
	// correction and pseudo-time scales. They live and die with the
	// Matrix, which serves one solve at a time.
	ws         krylov.Workspace
	jac        *euler.LocalJacobian
	lb, lx, ts []float64

	// Prof, when non-nil, receives this rank's measured phase timings
	// (scatter, matvec, reduce, ilu_factor, tri_solve). Each rank runs
	// on its own goroutine, so each rank must have its own profiler;
	// merge them with prof.Merge after mpi.Run returns. The process-wide
	// prof.Default is NOT used here — it assumes single-goroutine
	// nesting.
	Prof *prof.Profiler
}

// NewMatrix extracts rank c.Rank()'s share of the global matrix a under
// the block-row partition part (len a.NB): the plan from a's pattern,
// then one copy of the owned rows' values. Every rank calls it with the
// same a and part (SPMD); the halo plan is negotiated over the
// communicator.
func NewMatrix(c *mpi.Comm, a *sparse.BCSR, part []int32) (*Matrix, error) {
	m, ext, err := planMatrix(c, sparse.Graph{NV: a.NB, XAdj: a.RowPtr, Adj: a.ColIdx}, false, a.B, part)
	if err != nil {
		return nil, err
	}
	// Both halves of a local row keep a's column order, so a walk along
	// the global row fills each in sequence.
	bb := a.B * a.B
	nOwned := int32(len(m.Owned))
	for li, gr := range m.Owned {
		kd, ko := int(m.diag.RowPtr[li]), int(m.off.RowPtr[li])
		for k := int(a.RowPtr[gr]); k < int(a.RowPtr[gr+1]); k++ {
			if ext[a.ColIdx[k]] < nOwned {
				copy(m.diag.Val[kd*bb:kd*bb+bb], a.Val[k*bb:k*bb+bb])
				kd++
			} else {
				copy(m.off.Val[ko*bb:ko*bb+bb], a.Val[k*bb:k*bb+bb])
				ko++
			}
		}
	}
	return m, nil
}

// planMatrix builds rank c.Rank()'s Matrix — structure, halo plan and
// zeroed values — for blocks of b under the block-row partition part
// (len g.NV), from sparsity alone: block row i holds the ascending
// columns g.Adj[g.XAdj[i]:g.XAdj[i+1]], and column i as well when self
// is set (a mesh graph, whose self coupling is implied). It returns with
// it the extended-local number of every global row (−1 for rows this
// rank never reads), which is not kept. Collective.
func planMatrix(c *mpi.Comm, g sparse.Graph, self bool, b int, part []int32) (*Matrix, []int32, error) {
	if len(part) != g.NV {
		return nil, nil, fmt.Errorf("dist: partition length %d for %d block rows", len(part), g.NV)
	}
	me := int32(c.Rank())
	// Validate every rank's ownership locally (the partition is SPMD
	// data), so all ranks reject a bad partition before any
	// communication — a rank erroring mid-handshake would deadlock its
	// peers.
	counts := make([]int, c.Size())
	for i, q := range part {
		if q < 0 || int(q) >= c.Size() {
			return nil, nil, fmt.Errorf("dist: row %d assigned to invalid rank %d", i, q)
		}
		counts[q]++
	}
	for q, n := range counts {
		if n == 0 {
			return nil, nil, fmt.Errorf("dist: rank %d owns no rows", q)
		}
	}
	m := &Matrix{Comm: c, B: b, Owned: make([]int32, 0, counts[me])}
	// Extended-local numbering in one dense array: -1 for rows this rank
	// never reads, the owned rows numbered first in ascending global
	// order, then — by an ascending scan of the rows marked needed — the
	// ghosts.
	const unread, needed = -1, -2
	ext := make([]int32, g.NV)
	for i, q := range part {
		ext[i] = unread
		if q == me {
			ext[i] = int32(len(m.Owned))
			m.Owned = append(m.Owned, int32(i)) //lint:alloc-ok appends into capacity preallocated to the exact owned count
		}
	}
	nOwned := int32(len(m.Owned))
	nGhosts, nnzbDiag, nnzbOff := 0, 0, 0
	if self {
		nnzbDiag = len(m.Owned)
	}
	for _, gr := range m.Owned {
		for _, j := range g.Adj[g.XAdj[gr]:g.XAdj[gr+1]] {
			if ext[j] >= 0 {
				nnzbDiag++
				continue
			}
			nnzbOff++
			if ext[j] == unread {
				ext[j] = needed
				nGhosts++
			}
		}
	}
	m.Ghosts = make([]int32, 0, nGhosts)
	for v, e := range ext {
		if e == needed {
			ext[v] = nOwned + int32(len(m.Ghosts))
			m.Ghosts = append(m.Ghosts, int32(v)) //lint:alloc-ok appends into capacity preallocated to the exact ghost count
		}
	}
	// A row's owned columns and its ghost columns are each ascending in
	// extended numbering as they are in global numbering, so one pass
	// over the global row emits both local rows sorted, the implied self
	// column slotted in at its place.
	m.val = make([]float64, (nnzbDiag+nnzbOff+1)*b*b)
	split := nnzbDiag * b * b
	m.diag = &sparse.BCSR{NB: len(m.Owned), B: b, RowPtr: make([]int32, nOwned+1), ColIdx: make([]int32, 0, nnzbDiag), Val: m.val[:split:split]}
	m.off = &sparse.BCSR{NB: len(m.Owned), B: b, RowPtr: make([]int32, nOwned+1), ColIdx: make([]int32, 0, nnzbOff), Val: m.val[split : len(m.val)-b*b : len(m.val)-b*b]}
	for li, gr := range m.Owned {
		self := self
		for _, j := range g.Adj[g.XAdj[gr]:g.XAdj[gr+1]] {
			e := ext[j]
			if e >= nOwned {
				m.off.ColIdx = append(m.off.ColIdx, e) //lint:alloc-ok appends into exact preallocated capacity at plan construction
				continue
			}
			if self && e > int32(li) {
				m.diag.ColIdx = append(m.diag.ColIdx, int32(li)) //lint:alloc-ok appends into exact preallocated capacity at plan construction
				self = false
			}
			m.diag.ColIdx = append(m.diag.ColIdx, e) //lint:alloc-ok appends into exact preallocated capacity at plan construction
		}
		if self {
			m.diag.ColIdx = append(m.diag.ColIdx, int32(li)) //lint:alloc-ok appends into exact preallocated capacity at plan construction
		}
		m.diag.RowPtr[li+1] = int32(len(m.diag.ColIdx))
		m.off.RowPtr[li+1] = int32(len(m.off.ColIdx))
		if m.off.RowPtr[li+1] > m.off.RowPtr[li] {
			m.boundary = append(m.boundary, int32(li)) //lint:alloc-ok one-time plan construction at partition setup
		}
	}
	m.extBuf = make([]float64, (len(m.Owned)+len(m.Ghosts))*b)
	// Halo negotiation: send each rank the list of its rows we need,
	// then translate both directions into extended-local numbering.
	needFrom := map[int][]int32{}
	for _, v := range m.Ghosts {
		needFrom[int(part[v])] = append(needFrom[int(part[v])], v) //lint:alloc-ok one-time plan negotiation at partition setup
	}
	asked, err := negotiateHalo(c, needFrom)
	if err != nil {
		return nil, nil, err
	}
	sendTo := map[int][]int32{}
	for q, rows := range asked {
		locs := make([]int32, len(rows)) //lint:alloc-ok one-time plan negotiation at partition setup
		for i, gr := range rows {
			if gr < 0 || int(gr) >= g.NV || part[gr] != me {
				return nil, nil, fmt.Errorf("dist: rank %d asked rank %d for row %d it does not own", q, me, gr)
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
	m.halo = newHalo(c, b, mpi.TagHalo, sendTo, recvFrom)
	return m, ext, nil
}

// block returns where block (gi, gj) of the global matrix sits in val —
// diag's blocks first, then off's — for a row gi this rank owns, and
// false when the Matrix stores no such block. Plan-time only.
func (m *Matrix) block(gi, gj int32) (int32, bool) {
	li, ok := slices.BinarySearch(m.Owned, gi)
	if !ok {
		return 0, false
	}
	half, first, col := m.diag, int32(0), int32(0)
	if lj, ok := slices.BinarySearch(m.Owned, gj); ok {
		col = int32(lj)
	} else if g, ok := slices.BinarySearch(m.Ghosts, gj); ok {
		half, first, col = m.off, int32(len(m.diag.ColIdx)), int32(len(m.Owned)+g)
	} else {
		return 0, false
	}
	k, ok := slices.BinarySearch(half.ColIdx[half.RowPtr[li]:half.RowPtr[li+1]], col)
	return first + half.RowPtr[li] + int32(k), ok
}

// sink is the block of val that belongs to neither half.
func (m *Matrix) sink() int32 { return int32(len(m.diag.ColIdx) + len(m.off.ColIdx)) }

// LocalN returns the number of owned scalar unknowns.
func (m *Matrix) LocalN() int { return len(m.Owned) * m.B }

// MulVec computes the owned part of y = A x, where x and y are local
// owned vectors (length LocalN()); one halo exchange per call. By
// default the exchange is overlapped with the diagonal block (post,
// y = diag·x_owned for every row, wait, y += off·x_ghost on the boundary
// rows — the paper's first-order scatter fix, in PETSc's MatMult form);
// NoOverlap completes a blocking exchange first. Both produce the bits
// of one product over rows stored owned-columns-first: a boundary row's
// second half resumes the running sums its first half stored in y.
func (m *Matrix) MulVec(x, y []float64) error {
	sp := m.Prof.Begin(prof.PhaseMatVec)
	defer sp.End(0, 0) // the work is charged by the nested interior/boundary spans
	ext := m.extBuf
	copy(ext, x[:m.LocalN()])
	var err error
	if m.NoOverlap {
		err = m.halo.Exchange(m.Prof, ext)
	} else {
		err = m.halo.Start(m.Prof, ext)
	}
	if err != nil {
		return err
	}
	m.Prof.NoteThreads(prof.PhaseMatVec, m.pool.Workers())
	isp := m.Prof.Begin(prof.PhaseInterior)
	m.diag.MulVecPar(m.pool, ext, y)
	isp.End(m.diag.MulVecFlops(), m.diag.MulVecBytes())
	if !m.NoOverlap {
		if err := m.halo.Finish(m.Prof, ext); err != nil {
			return err
		}
	}
	bsp := m.Prof.Begin(prof.PhaseBoundary)
	m.addGhostColumns(ext, y)
	bsp.End(sparse.MulVecRowsFlops(len(m.off.ColIdx), m.B), sparse.MulVecRowsBytes(len(m.off.ColIdx), len(m.boundary), m.B))
	return nil
}

// BlockJacobi factors this rank's diagonal block with ILU(k) and
// returns the local preconditioner solve. The factorization is retained:
// a later call with the same options (after the values changed in
// place) refactors it, and solves returned earlier then apply the new
// factors.
func (m *Matrix) BlockJacobi(opts ilu.Options) (func(r, z []float64), error) {
	sp := m.Prof.Begin(prof.PhaseILUFactor)
	var err error
	if m.bj != nil && m.bjOpts == opts {
		err = m.bj.RefactorNoSpan(m.diag)
	} else {
		m.bj, err = ilu.FactorNoSpan(m.diag, opts) // nil on failure: the next call factors afresh
		m.bjOpts = opts
	}
	if err != nil {
		sp.End(0, 0)
		return nil, err
	}
	f := m.bj
	sp.End(f.FactorFlops(), f.FactorBytes())
	return func(r, z []float64) {
		sp := m.Prof.Begin(prof.PhaseTriSolve)
		m.Prof.NoteThreads(prof.PhaseTriSolve, m.pool.Workers())
		f.SolvePar(m.pool, r, z)
		sp.End(f.SolveFlops(), f.SolveBytes())
	}, nil
}
