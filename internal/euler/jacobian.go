package euler

import (
	"fmt"
	"slices"

	"petscfun3d/internal/mesh"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// JacobianPattern allocates the BCSR matrix with the sparsity of the
// first-order flux Jacobian (vertex graph plus diagonal).
func (d *Discretization) JacobianPattern() *sparse.BCSR {
	g := sparse.Graph{NV: d.M.NumVertices(), XAdj: d.M.XAdj, Adj: d.M.Adj}
	return sparse.BlockPattern(g, d.Sys.B())
}

// jacobianPlan holds where each swept edge's and each vertex's blocks
// sit in a value array, as block indices, so assembly needs no search
// per edge, and which row of a time-scale array each of them feeds. The
// plan of the whole matrix (built once by NewDiscretization) sweeps
// every edge into JacobianPattern's array and row v is vertex v; a
// rank's plan (PlanLocalJacobian) sweeps the edges that touch a row it
// owns into the caller's array, every block and time scale of a row it
// does not own landing in one sink block and one sink row, so the edge
// loops are the same branch-free loops.
type jacobianPlan struct {
	idx    []int32 // swept flux edges, ascending; nil: every edge
	ab, ba []int32 // per swept edge: blocks (a,b) and (b,a)
	ra, rb []int32 // per swept edge: time-scale rows of a and b; nil with idx
	diag   []int32 // per vertex: block (v,v)
	bnd    []int32 // boundary vertices among the plan's rows, ascending
	bndRow []int32 // their time-scale rows (bnd itself in the whole-matrix plan)
	nnzb   int     // blocks of JacobianPattern (whole-matrix plan only)
	err    error   // set when the array lacks a block the sweep writes
}

// patternBlock is block for JacobianPattern's array: row i is the sorted
// neighbors of i with i itself inserted and starts at block XAdj[i]+i,
// so (i, j) is at j's rank among the neighbors, shifted past the
// diagonal when j > i.
func patternBlock(m *mesh.Mesh) func(i, j int32) (int32, bool) {
	return func(i, j int32) (int32, bool) {
		k, ok := slices.BinarySearch(m.Adj[m.XAdj[i]:m.XAdj[i+1]], j)
		if j > i {
			k++
		}
		return m.XAdj[i] + i + int32(k), ok || i == j
	}
}

// planJacobian plans the rows listed in owned — ascending vertices, row
// li of the time-scale array being owned[li]; nil plans every row, row v
// being vertex v. block(i, j) is the block of the value array that holds
// entry (i, j) of a planned row i (j is i or a mesh neighbor of i), and
// false when the array has none; sink is the block, and len(owned) the
// time-scale row, that everything belonging to an unplanned row lands in.
func planJacobian(m *mesh.Mesh, edges []edgeData, owned []int32, block func(i, j int32) (int32, bool), sink int32) jacobianPlan {
	nv := m.NumVertices()
	// rowOf (plan time only) is the time-scale row of each vertex, the
	// sink row for an unplanned one; nil when every row is planned.
	var rowOf []int32
	sinkRow := int32(len(owned))
	if owned != nil {
		rowOf = make([]int32, nv)
		for v := range rowOf {
			rowOf[v] = sinkRow
		}
		for li, v := range owned {
			rowOf[v] = int32(li)
		}
	}
	planned := func(v int32) bool { return rowOf == nil || rowOf[v] < sinkRow }
	n, nb := len(edges), 0
	if owned != nil {
		n = 0
		for ei := range edges {
			if e := &edges[ei]; planned(e.a) || planned(e.b) {
				n++
			}
		}
	}
	for v, kind := range m.BKind {
		if kind != mesh.BNone && planned(int32(v)) {
			nb++
		}
	}
	p := jacobianPlan{ab: make([]int32, n), ba: make([]int32, n), diag: make([]int32, nv), bnd: make([]int32, nb)}
	p.bndRow = p.bnd
	if owned != nil {
		p.idx, p.ra, p.rb, p.bndRow = make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, nb)
	}
	// at is where entry (i, j) goes: its block in a planned row, else the sink.
	at := func(i, j int32) int32 {
		if !planned(i) {
			return sink
		}
		k, ok := block(i, j)
		if !ok && p.err == nil {
			p.err = fmt.Errorf("euler: Jacobian block (%d,%d) missing from the matrix", i, j)
		}
		return k
	}
	k := 0
	for v, kind := range m.BKind {
		p.diag[v] = at(int32(v), int32(v))
		if kind == mesh.BNone || !planned(int32(v)) {
			continue
		}
		p.bnd[k] = int32(v)
		if owned != nil {
			p.bndRow[k] = rowOf[v]
		}
		k++
	}
	k = 0
	for ei := range edges {
		e := &edges[ei]
		if !(planned(e.a) || planned(e.b)) {
			continue
		}
		p.ab[k], p.ba[k] = at(e.a, e.b), at(e.b, e.a)
		if owned != nil {
			p.idx[k], p.ra[k], p.rb[k] = int32(ei), rowOf[e.a], rowOf[e.b]
		}
		k++
	}
	return p
}

// AssembleJacobian fills a (which must have JacobianPattern's sparsity)
// with the analytical Jacobian of the *first-order* residual at state q,
// regardless of the discretization's flux order: as in the paper, the
// preconditioner matrix is always built from the first-order analytical
// Jacobian while the (possibly second-order) operator is applied
// matrix-free.
//
// Requires the interlaced layout (blocks only make sense there).
func (d *Discretization) AssembleJacobian(q []float64, a *sparse.BCSR) error {
	if d.Opts.Layout != sparse.Interlaced {
		return fmt.Errorf("euler: AssembleJacobian requires interlaced layout")
	}
	b := d.Sys.B()
	if a.NB != d.M.NumVertices() || a.B != b {
		return fmt.Errorf("euler: Jacobian matrix is %dx%d blocks of %d, want %d of %d",
			a.NB, a.NB, a.B, d.M.NumVertices(), b)
	}
	if d.jac.err != nil {
		return d.jac.err
	}
	if len(a.ColIdx) != d.jac.nnzb {
		return fmt.Errorf("euler: Jacobian matrix has %d blocks, JacobianPattern has %d", len(a.ColIdx), d.jac.nnzb)
	}
	diag := d.jac.diag
	for v, k := range diag {
		if a.ColIdx[k] != int32(v) {
			return fmt.Errorf("euler: missing diagonal block %d", v)
		}
	}
	sp := prof.Begin(prof.PhaseJacobian)
	defer sp.End(d.jacobianFlops(), d.jacobianBytes())
	d.assemble(&d.jac, q, a.Val)
	if d.Opts.Viscosity > 0 {
		d.addDiffusionJacobian(a)
	}
	return nil
}

// assemble writes the first-order flux Jacobian at q into the plan's
// blocks of val: dH/dqa = ½ A(qa)·S + ½λI, dH/dqb = ½ A(qb)·S − ½λI
// (dissipation coefficient frozen, the standard approximation) over the
// plan's edges, then the boundary closure of the plan's rows. val is the
// plan's whole array and is zeroed first: every block accumulates. (An
// off-diagonal block has one edge and could be stored instead, saving
// the zero fill; measured, that wins on a matrix larger than the last
// cache level and loses on one inside it, where the fill is what brings
// the lines in — EXPERIMENTS.md, "The Jacobian in one pass".)
func (d *Discretization) assemble(p *jacobianPlan, q, val []float64) {
	b := d.Sys.B()
	bb := b * b
	clear(val)
	switch sys := d.Sys.(type) {
	case *Incompressible:
		jacEdges4(sys, d.edges, p.idx, p.ab, p.ba, p.diag, q, val)
	case *Compressible:
		jacEdges5(sys, d.edges, p.idx, p.ab, p.ba, p.diag, q, val)
	}
	// Boundary fluxes of the plan's rows, through the interface like the
	// residual's closure.
	ws := d.getWS()
	qa, jl := ws.qa[:b], ws.jac[:bb]
	for _, v := range p.bnd {
		s := d.Geo.BoundaryArea[v]
		d.gather(q, v, qa)
		dst := val[int(p.diag[v])*bb:][:bb]
		switch d.M.BKind[v] {
		case mesh.BInflow, mesh.BOutflow:
			lam := d.Sys.SpectralRadius(qa, s)
			if l2 := d.Sys.SpectralRadius(d.infState, s); l2 > lam {
				lam = l2
			}
			d.Sys.PhysJacobian(qa, s, jl)
			for k := range jl {
				dst[k] += 0.5 * jl[k]
			}
			for c := 0; c < b; c++ {
				dst[c*b+c] += 0.5 * lam
			}
		case mesh.BWall:
			d.wallJacobian(qa, s, jl)
			for k := range jl {
				dst[k] += jl[k]
			}
		}
	}
	d.putWS(ws)
}

// jacEdges4 and jacEdges5 accumulate every swept edge's four blocks:
// r_a += H and r_b −= H, so (a,a) and (b,a) take ±∂H/∂qa, (a,b) and
// (b,b) take ±∂H/∂qb. The physical Jacobian and the spectral radius are
// the system's own methods called on its concrete type — static calls
// on stack blocks, one copy of the analytical Jacobian — and the block
// positions come from the plan (idx as in the flux kernels: nil sweeps
// every edge). Interlaced state only.
func jacEdges4(sys *Incompressible, edges []edgeData, idx, ab, ba, diag []int32, q, val []float64) {
	var jl, jr [16]float64
	n := len(edges)
	if idx != nil {
		n = len(idx)
	}
	ab, ba = ab[:n], ba[:n]
	for k := 0; k < n; k++ {
		ei := k
		if idx != nil {
			ei = int(idx[k])
		}
		e := &edges[ei]
		qa, qb := q[int(e.a)*4:int(e.a)*4+4], q[int(e.b)*4:int(e.b)*4+4]
		lam := sys.SpectralRadius(qa, e.n)
		if l2 := sys.SpectralRadius(qb, e.n); l2 > lam {
			lam = l2
		}
		sys.PhysJacobian(qa, e.n, jl[:])
		sys.PhysJacobian(qb, e.n, jr[:])
		for i := range jl {
			jl[i] *= 0.5
			jr[i] *= 0.5
		}
		for c := 0; c < 16; c += 5 {
			jl[c] += 0.5 * lam
			jr[c] -= 0.5 * lam
		}
		aa := val[int(diag[e.a])*16:][:16]
		bb := val[int(diag[e.b])*16:][:16]
		vab := val[int(ab[k])*16:][:16]
		vba := val[int(ba[k])*16:][:16]
		for i := range jl {
			aa[i] += jl[i]
			vab[i] += jr[i]
			vba[i] -= jl[i]
			bb[i] -= jr[i]
		}
	}
}

func jacEdges5(sys *Compressible, edges []edgeData, idx, ab, ba, diag []int32, q, val []float64) {
	var jl, jr [25]float64
	n := len(edges)
	if idx != nil {
		n = len(idx)
	}
	ab, ba = ab[:n], ba[:n]
	for k := 0; k < n; k++ {
		ei := k
		if idx != nil {
			ei = int(idx[k])
		}
		e := &edges[ei]
		qa, qb := q[int(e.a)*5:int(e.a)*5+5], q[int(e.b)*5:int(e.b)*5+5]
		lam := sys.SpectralRadius(qa, e.n)
		if l2 := sys.SpectralRadius(qb, e.n); l2 > lam {
			lam = l2
		}
		sys.PhysJacobian(qa, e.n, jl[:])
		sys.PhysJacobian(qb, e.n, jr[:])
		for i := range jl {
			jl[i] *= 0.5
			jr[i] *= 0.5
		}
		for c := 0; c < 25; c += 6 {
			jl[c] += 0.5 * lam
			jr[c] -= 0.5 * lam
		}
		aa := val[int(diag[e.a])*25:][:25]
		bb := val[int(diag[e.b])*25:][:25]
		vab := val[int(ab[k])*25:][:25]
		vba := val[int(ba[k])*25:][:25]
		for i := range jl {
			aa[i] += jl[i]
			vab[i] += jr[i]
			vba[i] -= jl[i]
			bb[i] -= jr[i]
		}
	}
}

// wallJacobian computes d(wallFlux)/dq into j (column-major b×b, as
// PhysJacobian: entry (r, c) at j[c*b+r]).
func (d *Discretization) wallJacobian(q []float64, s mesh.Vec3, j []float64) {
	b := d.Sys.B()
	for k := range j[:b*b] {
		j[k] = 0
	}
	switch sys := d.Sys.(type) {
	case *Incompressible:
		// Momentum rows depend only on p (component 0): column 0.
		j[0*b+1] = s.X
		j[0*b+2] = s.Y
		j[0*b+3] = s.Z
	case *Compressible:
		g1 := sys.Gamma - 1
		rho := q[0]
		u, v, w := q[1]/rho, q[2]/rho, q[3]/rho
		phi := 0.5 * g1 * (u*u + v*v + w*w)
		dp := [5]float64{phi, -g1 * u, -g1 * v, -g1 * w, g1}
		for c := 0; c < 5; c++ {
			j[c*b+1] = s.X * dp[c]
			j[c*b+2] = s.Y * dp[c]
			j[c*b+3] = s.Z * dp[c]
		}
	default:
		// Internal invariant: the system enum is validated when the problem is configured
		panic("euler: wallJacobian: unknown system")
	}
}
