package euler

import (
	"fmt"

	"petscfun3d/internal/mesh"
	"petscfun3d/internal/sparse"
)

// Distributed-residual entry points: the edge loop split by vertex
// ownership so a partitioned caller (internal/dist) can overlap the
// ghost-state exchange with the interior edges. These helpers carry no
// profiler spans of their own — each rank runs on its own goroutine
// with its own profiler, and the process-wide prof.Default assumes
// single-goroutine nesting — so the caller brackets them.

// SplitEdges partitions the flux edges by the ownership predicate:
// interior edges have both endpoints owned (computable before any ghost
// state arrives), frontier edges have exactly one owned endpoint (they
// read the neighbor's ghost state and contribute to the owned
// endpoint's residual). Edges with no owned endpoint are dropped — they
// contribute nothing to this rank's residual rows. Plan-time only.
func (d *Discretization) SplitEdges(owned func(int32) bool) (interior, frontier []int32) {
	for ei := range d.edges {
		e := &d.edges[ei]
		oa, ob := owned(e.a), owned(e.b)
		switch {
		case oa && ob:
			interior = append(interior, int32(ei))
		case oa || ob:
			frontier = append(frontier, int32(ei))
		}
	}
	return interior, frontier
}

// EdgeEndpoints returns the endpoints of flux edge ei (in the
// discretization's iteration order), so a partitioned caller can plan
// its ghost set without duplicating the edge list.
func (d *Discretization) EdgeEndpoints(ei int32) (a, b int32) {
	e := &d.edges[ei]
	return e.a, e.b
}

// ResidualEdges accumulates the first-order convective flux of the
// listed edges into r without zeroing it first, so a caller can sweep
// disjoint edge subsets in separate passes (interior while the halo is
// in flight, frontier after). Reconstruction, limiting, and diffusion
// are not applied — the distributed residual path is first-order, as
// the preconditioner side of the paper's solver is.
func (d *Discretization) ResidualEdges(q, r []float64, edges []int32) {
	if len(edges) == 0 {
		return // to the kernel a nil list means every edge; here it means none
	}
	d.fluxEdges(d.edges, edges, q, r)
}

// BoundaryResidualMasked adds the boundary closure fluxes (weak
// farfield and slip wall) for owned vertices only; a nil mask means
// every vertex. A non-nil owned must have length NumVertices.
func (d *Discretization) BoundaryResidualMasked(q, r []float64, owned []bool) {
	b := d.Sys.B()
	inf := d.infState
	ws := d.getWS()
	qi, flux, scratch := ws.qa[:b], ws.flux[:b], ws.scratch[:b]
	bk := d.M.BKind
	if owned != nil {
		owned = owned[:len(bk)] // a short mask panics here instead of reading as "not masked" below
	}
	ba := d.Geo.BoundaryArea[:len(bk)] // bce: ties len(ba) to len(bk); the vertex index serves both unchecked
	for v, kind := range bk {
		// v < len(owned) is false for every v under a nil mask, true for
		// every v under a real one: the guard that makes owned[v] unchecked.
		if kind == mesh.BNone || (v < len(owned) && !owned[v]) {
			continue
		}
		s := ba[v]
		d.gather(q, int32(v), qi)
		switch kind {
		case mesh.BInflow, mesh.BOutflow:
			// Weak characteristic farfield: upwind flux against the
			// freestream ghost state.
			NumFlux(d.Sys, qi, inf, s, flux, scratch)
		case mesh.BWall:
			d.wallFlux(qi, s, flux)
		}
		d.scatterAdd(r, int32(v), flux, +1)
	}
	d.putWS(ws)
}

// LocalJacobian is one rank's plan for assembling the first-order
// Jacobian rows it owns straight into its own value array: the flux
// edges with an owned endpoint, ascending, and where their blocks go.
// Ascending edge order makes the owned rows bitwise AssembleJacobian's:
// an owned diagonal block sums the same edges in the same order, an
// owned off-diagonal block is its one edge's. Blocks of rows the rank
// does not own all land in one sink block the caller sets aside and
// never reads. Read-only once built, like the Discretization's own plan.
type LocalJacobian struct {
	d    *Discretization
	plan jacobianPlan
	rows int
}

// PlanLocalJacobian plans the rows listed in owned, ascending: local row
// li is vertex owned[li]. block(i, j) is the block of the caller's value
// array that holds entry (i, j) of an owned row i — j is i or a mesh
// neighbor of i — and false when the array has none; sink is the block
// set aside for every other row. Inviscid interlaced discretizations
// only, like the distributed residual.
func (d *Discretization) PlanLocalJacobian(owned []int32, block func(i, j int32) (int32, bool), sink int32) (*LocalJacobian, error) {
	if d.Opts.Layout != sparse.Interlaced || d.Opts.Viscosity != 0 {
		return nil, fmt.Errorf("euler: rank-local Jacobian assembly requires the inviscid interlaced discretization")
	}
	for li, v := range owned {
		if v < 0 || int(v) >= d.M.NumVertices() || (li > 0 && owned[li-1] >= v) {
			return nil, fmt.Errorf("euler: owned rows must be ascending vertices below %d, got %d at %d", d.M.NumVertices(), v, li)
		}
	}
	if owned == nil {
		owned = []int32{} // to the plan a nil list means every row; here it means none
	}
	p := planJacobian(d.M, d.edges, owned, block, sink)
	if p.err != nil {
		return nil, p.err
	}
	return &LocalJacobian{d: d, plan: p, rows: len(owned)}, nil
}

// Assemble overwrites val — the whole array the plan addresses, sink
// included — with the Jacobian at q (global length, owned and ghost
// entries current).
func (p *LocalJacobian) Assemble(q, val []float64) { p.d.assemble(&p.plan, q, val) }

// TimeScalesInto is Discretization.TimeScalesInto for the owned rows:
// out has one entry per local row and one more, the sink's, which means
// nothing afterwards; all of it is overwritten.
func (p *LocalJacobian) TimeScalesInto(q, out []float64) {
	p.d.timeScales(&p.plan, q, out[:p.rows+1])
}
