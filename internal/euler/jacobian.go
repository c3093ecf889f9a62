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

// jacobianPlan holds where each edge's and each vertex's blocks sit in
// JacobianPattern's value array, as block indices: row v of the pattern
// is the sorted neighbors of v with v itself inserted, and starts at
// block XAdj[v]+v. Built once by NewDiscretization; AssembleJacobian
// then needs no search per edge.
type jacobianPlan struct {
	ab, ba []int32 // per flux edge: blocks (a,b) and (b,a)
	diag   []int32 // per vertex: block (v,v)
	nnzb   int
	err    error // set when an edge's endpoints are not adjacent in the mesh graph
}

func planJacobian(m *mesh.Mesh, edges []edgeData) jacobianPlan {
	nv := m.NumVertices()
	p := jacobianPlan{
		ab:   make([]int32, len(edges)),
		ba:   make([]int32, len(edges)),
		diag: make([]int32, nv),
		nnzb: len(m.Adj) + nv,
	}
	for v := 0; v < nv; v++ {
		below, _ := slices.BinarySearch(m.Neighbors(v), int32(v))
		p.diag[v] = m.XAdj[v] + int32(v+below)
	}
	// block returns the position of (i, j), j a neighbor of i: its rank
	// among i's neighbors, shifted past the diagonal when j > i.
	block := func(i, j int32) (int32, bool) {
		k, ok := slices.BinarySearch(m.Neighbors(int(i)), j)
		if j > i {
			k++
		}
		return m.XAdj[i] + i + int32(k), ok
	}
	for ei, e := range edges {
		var okAB, okBA bool
		p.ab[ei], okAB = block(e.a, e.b)
		p.ba[ei], okBA = block(e.b, e.a)
		if !(okAB && okBA) && p.err == nil {
			p.err = fmt.Errorf("euler: Jacobian block (%d,%d) missing from pattern", e.a, e.b)
		}
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
	for i := range a.Val {
		a.Val[i] = 0
	}
	// dH/dqa = ½ A(qa)·S + ½λI ; dH/dqb = ½ A(qb)·S − ½λI
	// (dissipation coefficient frozen, the standard approximation).
	switch sys := d.Sys.(type) {
	case *Incompressible:
		jacEdges4(sys, d.edges, d.jac.ab, d.jac.ba, diag, q, a.Val)
	case *Compressible:
		jacEdges5(sys, d.edges, d.jac.ab, d.jac.ba, diag, q, a.Val)
	}
	// Boundary fluxes, through the interface like the residual's closure.
	ws := d.getWS()
	qa, jl := ws.qa[:b], ws.jac[:b*b]
	for v := int32(0); v < int32(d.M.NumVertices()); v++ {
		kind := d.M.BKind[v]
		if kind == mesh.BNone {
			continue
		}
		s := d.Geo.BoundaryArea[v]
		d.gather(q, v, qa)
		dst := a.Block(int(diag[v]))
		switch kind {
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
	if d.Opts.Viscosity > 0 {
		d.addDiffusionJacobian(a)
	}
	return nil
}

// jacEdges4 and jacEdges5 accumulate every edge's four blocks: r_a += H
// and r_b −= H, so (a,a) and (b,a) take ±∂H/∂qa, (a,b) and (b,b) take
// ±∂H/∂qb. The physical Jacobian and the spectral radius are the
// system's own methods called on its concrete type — static calls on
// stack blocks, one copy of the analytical Jacobian — and the block
// positions come from the plan. Interlaced state only.
func jacEdges4(sys *Incompressible, edges []edgeData, ab, ba, diag []int32, q, val []float64) {
	var jl, jr [16]float64
	ab, ba = ab[:len(edges)], ba[:len(edges)]
	for ei := range edges {
		e := &edges[ei]
		qa, qb := q[int(e.a)*4:int(e.a)*4+4], q[int(e.b)*4:int(e.b)*4+4]
		lam := sys.SpectralRadius(qa, e.n)
		if l2 := sys.SpectralRadius(qb, e.n); l2 > lam {
			lam = l2
		}
		sys.PhysJacobian(qa, e.n, jl[:])
		sys.PhysJacobian(qb, e.n, jr[:])
		for k := range jl {
			jl[k] *= 0.5
			jr[k] *= 0.5
		}
		for c := 0; c < 16; c += 5 {
			jl[c] += 0.5 * lam
			jr[c] -= 0.5 * lam
		}
		aa := val[int(diag[e.a])*16:][:16]
		bb := val[int(diag[e.b])*16:][:16]
		vab := val[int(ab[ei])*16:][:16]
		vba := val[int(ba[ei])*16:][:16]
		for k := range jl {
			aa[k] += jl[k]
			vab[k] += jr[k]
			vba[k] -= jl[k]
			bb[k] -= jr[k]
		}
	}
}

func jacEdges5(sys *Compressible, edges []edgeData, ab, ba, diag []int32, q, val []float64) {
	var jl, jr [25]float64
	ab, ba = ab[:len(edges)], ba[:len(edges)]
	for ei := range edges {
		e := &edges[ei]
		qa, qb := q[int(e.a)*5:int(e.a)*5+5], q[int(e.b)*5:int(e.b)*5+5]
		lam := sys.SpectralRadius(qa, e.n)
		if l2 := sys.SpectralRadius(qb, e.n); l2 > lam {
			lam = l2
		}
		sys.PhysJacobian(qa, e.n, jl[:])
		sys.PhysJacobian(qb, e.n, jr[:])
		for k := range jl {
			jl[k] *= 0.5
			jr[k] *= 0.5
		}
		for c := 0; c < 25; c += 6 {
			jl[c] += 0.5 * lam
			jr[c] -= 0.5 * lam
		}
		aa := val[int(diag[e.a])*25:][:25]
		bb := val[int(diag[e.b])*25:][:25]
		vab := val[int(ab[ei])*25:][:25]
		vba := val[int(ba[ei])*25:][:25]
		for k := range jl {
			aa[k] += jl[k]
			vab[k] += jr[k]
			vba[k] -= jl[k]
			bb[k] -= jr[k]
		}
	}
}

// wallJacobian computes d(wallFlux)/dq into j (row-major b×b).
func (d *Discretization) wallJacobian(q []float64, s mesh.Vec3, j []float64) {
	b := d.Sys.B()
	for k := range j[:b*b] {
		j[k] = 0
	}
	switch sys := d.Sys.(type) {
	case *Incompressible:
		// Momentum rows depend only on p (component 0).
		j[1*b+0] = s.X
		j[2*b+0] = s.Y
		j[3*b+0] = s.Z
	case *Compressible:
		g1 := sys.Gamma - 1
		rho := q[0]
		u, v, w := q[1]/rho, q[2]/rho, q[3]/rho
		phi := 0.5 * g1 * (u*u + v*v + w*w)
		dp := [5]float64{phi, -g1 * u, -g1 * v, -g1 * w, g1}
		for c := 0; c < 5; c++ {
			j[1*b+c] = s.X * dp[c]
			j[2*b+c] = s.Y * dp[c]
			j[3*b+c] = s.Z * dp[c]
		}
	default:
		//lint:panic-ok internal invariant: the system enum is validated when the problem is configured
		panic("euler: wallJacobian: unknown system")
	}
}
