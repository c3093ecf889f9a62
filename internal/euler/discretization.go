package euler

import (
	"fmt"
	"sync"

	"petscfun3d/internal/mesh"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// fluxWorkspace is the scratch of the sweeps that still go through the
// System interface (second order and the boundary closures): the
// gathered endpoint states, the reconstructed face states, the flux and
// its scratch, and one Jacobian block. The arrays live here — not as
// locals in the sweep — because they are passed to System interface
// methods, which makes stack locals escape to the heap (the codegen
// budget forbids that). Workspaces are borrowed from a pool because the
// distributed ranks run as goroutines over one shared Discretization.
// The first-order edge kernels (kernels.go) need none of it.
type fluxWorkspace struct {
	qa, qb, ql, qr, flux, scratch [5]float64
	jac                           [25]float64
}

// edgeData is one edge of the flux loop: endpoints and the directed dual
// face area, kept together so the loop can run in any edge order.
type edgeData struct {
	a, b int32
	n    mesh.Vec3
}

// Options configures a Discretization.
type Options struct {
	// Order is the spatial order of the convective flux: 1 (first-order
	// upwind) or 2 (limited linear reconstruction). The preconditioner
	// Jacobian is always assembled first-order, as in the paper.
	Order int
	// Layout is the storage layout of state and residual vectors.
	Layout sparse.Layout
	// EdgeOrdering names the flux-loop edge order: "sorted" (the paper's
	// cache-friendly reordering, default), "natural" (as generated), or
	// "colored" (the original FUN3D vector-machine ordering).
	EdgeOrdering string
	// Limit enables the Barth-Jespersen limiter for Order 2.
	Limit bool
	// Viscosity, when positive, adds a Galerkin (P1 finite-element)
	// Laplacian of the momentum components with coefficient μ — the
	// "Galerkin-type diffusion" of the FUN3D discretization, making the
	// solver a laminar Navier-Stokes code (with free-slip walls).
	Viscosity float64
}

// Discretization is the edge-based finite-volume spatial discretization
// of a System on a mesh.
type Discretization struct {
	M    *mesh.Mesh
	Geo  *Geometry
	Sys  System
	Opts Options

	edges []edgeData
	// Second-order workspace.
	grad   []float64 // nv*b*3, least-squares gradients
	alpha  []float64 // nv*b, limiter factors
	lsqInv []float64 // nv*9, precomputed LSQ normal-matrix inverses
	// Viscous edge weights (when Opts.Viscosity > 0).
	diffW []float64
	// Private residual scratch for ResidualParallel, one per extra
	// thread, grown lazily to the largest thread count seen.
	privRes [][]float64
	// Reusable worker-pool task of ResidualParallel; field re-pointing
	// keeps the threaded sweep allocation-free in steady state.
	fluxT fluxTask
	// Plan-time state, built by NewDiscretization and read-only
	// afterwards (ranks share one Discretization): the freestream ghost
	// state of the boundary closures (System.Freestream allocates a
	// fresh vector per call) and the Jacobian block positions.
	infState []float64
	jac      jacobianPlan
	// Flux-sweep scratch states, pooled so concurrent sweeps (the
	// distributed ranks share one Discretization) each borrow their own.
	wsPool sync.Pool
}

// getWS borrows a flux workspace; pair with putWS when the sweep ends.
func (d *Discretization) getWS() *fluxWorkspace {
	if w, ok := d.wsPool.Get().(*fluxWorkspace); ok {
		return w
	}
	return &fluxWorkspace{} // one workspace per concurrent sweep, recycled through the pool thereafter
}

func (d *Discretization) putWS(w *fluxWorkspace) { d.wsPool.Put(w) }

// NewDiscretization builds a discretization. geo may be nil, in which
// case the geometry is computed.
func NewDiscretization(m *mesh.Mesh, geo *Geometry, sys System, opts Options) (*Discretization, error) {
	if opts.Order != 1 && opts.Order != 2 {
		return nil, fmt.Errorf("euler: order %d not supported (want 1 or 2)", opts.Order)
	}
	if geo == nil {
		var err error
		geo, err = BuildGeometry(m)
		if err != nil {
			return nil, err
		}
	}
	if err := checkSystem(sys); err != nil {
		return nil, err
	}
	d := &Discretization{M: m, Geo: geo, Sys: sys, Opts: opts, infState: sys.Freestream()}
	// Materialize edges+normals in the requested iteration order.
	order := make([]int, m.NumEdges())
	for i := range order {
		order[i] = i
	}
	switch opts.EdgeOrdering {
	case "", "sorted", "natural":
		// The mesh's edge list is already sorted by (A, B).
	case "colored":
		// The vector-machine baseline: edges in as-generated (scrambled)
		// order, greedily colored so no color class repeats a vertex.
		colored, _ := mesh.ColorEdges(mesh.ScrambleEdges(m.Edges, 12345), m.NumVertices())
		index := make(map[mesh.Edge]int, m.NumEdges())
		for i, e := range m.Edges {
			index[e] = i
		}
		for i, e := range colored {
			order[i] = index[e]
		}
	default:
		return nil, fmt.Errorf("euler: unknown edge ordering %q", opts.EdgeOrdering)
	}
	d.edges = make([]edgeData, m.NumEdges())
	for i, oi := range order {
		e := m.Edges[oi]
		if uint32(e.A) >= uint32(m.NumVertices()) || uint32(e.B) >= uint32(m.NumVertices()) {
			return nil, fmt.Errorf("euler: edge %d joins %d and %d, outside the %d vertices", oi, e.A, e.B, m.NumVertices())
		}
		d.edges[i] = edgeData{a: e.A, b: e.B, n: geo.Normals[oi]}
	}
	d.jac = planJacobian(m, d.edges, nil, patternBlock(m), -1)
	d.jac.nnzb = len(m.Adj) + m.NumVertices()
	b := sys.B()
	if opts.Order == 2 {
		d.grad = make([]float64, m.NumVertices()*b*3)
		d.alpha = make([]float64, m.NumVertices()*b)
		if err := d.buildLSQ(); err != nil {
			return nil, err
		}
	}
	if !(opts.Viscosity >= 0) { // rejects NaN too
		return nil, fmt.Errorf("euler: viscosity %g, want >= 0", opts.Viscosity)
	}
	if opts.Viscosity > 0 {
		if err := d.buildDiffusionWeights(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// N returns the number of scalar unknowns.
func (d *Discretization) N() int { return d.M.NumVertices() * d.Sys.B() }

// idx maps (vertex, component) to the scalar index under the layout.
func (d *Discretization) idx(v int32, c int) int {
	return sparse.ScalarIndex(d.Opts.Layout, d.M.NumVertices(), d.Sys.B(), int(v), c)
}

// gather copies vertex v's state into dst. The interlaced fast path is
// kept small enough to inline into the flux sweeps; the strided layouts
// go through the out-of-line helper. len(dst) carries the block size so
// the fast path needs no interface call.
func (d *Discretization) gather(q []float64, v int32, dst []float64) {
	if d.Opts.Layout != sparse.Interlaced {
		d.gatherStrided(q, v, dst)
		return
	}
	copy(dst, q[int(v)*len(dst):])
}

// gatherStrided is kept out of line (a call to an inlinable function is
// charged its full body cost, which would push gather past the inlining
// budget; a plain call is cheaper to the inliner).
//
//go:noinline
func (d *Discretization) gatherStrided(q []float64, v int32, dst []float64) {
	for c := range dst {
		dst[c] = q[d.idx(v, c)]
	}
}

// scatterAdd accumulates src into vertex v's residual with sign. Split
// like gather so the interlaced path inlines into the flux sweeps.
func (d *Discretization) scatterAdd(r []float64, v int32, src []float64, sign float64) {
	if d.Opts.Layout != sparse.Interlaced {
		d.scatterAddStrided(r, v, src, sign)
		return
	}
	b := len(src)
	rs := r[int(v)*b : int(v)*b+b]
	for c, s := range src {
		rs[c] += sign * s
	}
}

func (d *Discretization) scatterAddStrided(r []float64, v int32, src []float64, sign float64) {
	for c := range src {
		r[d.idx(v, c)] += sign * src[c]
	}
}

// FreestreamVector returns a state vector with every vertex at the
// freestream state, in the discretization's layout.
func (d *Discretization) FreestreamVector() []float64 {
	q := make([]float64, d.N())
	for v := int32(0); v < int32(d.M.NumVertices()); v++ {
		for c, val := range d.infState {
			q[d.idx(v, c)] = val
		}
	}
	return q
}

// Residual evaluates the steady residual r(q): the net convective flux
// out of every control volume, including the weak farfield and slip-wall
// boundary fluxes. r must have length N().
func (d *Discretization) Residual(q, r []float64) {
	sp := prof.Begin(prof.PhaseFlux)
	rs := r[:d.N()] // bce: one range check here; the zero loop then indexes the tied slice unchecked
	for i := range rs {
		rs[i] = 0
	}
	if d.Opts.Order == 2 {
		gsp := prof.Begin(prof.PhaseGradient)
		d.computeGradients(q)
		if d.Opts.Limit {
			d.computeLimiters(q)
		}
		gsp.End(d.gradientFlops(), d.gradientBytes())
		d.reconstructedEdges(q, r)
	} else {
		d.fluxEdges(d.edges, nil, q, r)
	}
	if d.Opts.Viscosity > 0 {
		d.addDiffusion(q, r)
	}
	d.boundaryResidual(q, r)
	sp.End(d.SweepFlops(), d.SweepBytes())
}

// boundaryResidual adds the boundary closure fluxes at every vertex.
func (d *Discretization) boundaryResidual(q, r []float64) {
	d.BoundaryResidualMasked(q, r, nil)
}

// wallFlux is the impermeable slip-wall flux: pressure force only.
func (d *Discretization) wallFlux(q []float64, s mesh.Vec3, out []float64) {
	switch sys := d.Sys.(type) {
	case *Incompressible:
		p := q[0]
		out[0] = 0
		out[1] = p * s.X
		out[2] = p * s.Y
		out[3] = p * s.Z
	case *Compressible:
		p := sys.Pressure(q)
		out[0] = 0
		out[1] = p * s.X
		out[2] = p * s.Y
		out[3] = p * s.Z
		out[4] = 0
	default:
		//lint:panic-ok internal invariant: the system enum is validated when the problem is configured
		panic("euler: wallFlux: unknown system")
	}
}

// TimeScales returns, for each vertex, the sum of spectral radii over its
// control-volume faces; the local pseudo-timestep is then
// Δt_v = CFL · Volume_v / TimeScales_v. It allocates the result; a
// solver that calls it every step holds one buffer for TimeScalesInto.
func (d *Discretization) TimeScales(q []float64) []float64 {
	out := make([]float64, d.M.NumVertices())
	d.TimeScalesInto(q, out)
	return out
}

// TimeScalesInto is TimeScales into out, which must have length
// NumVertices; it is overwritten.
func (d *Discretization) TimeScalesInto(q, out []float64) {
	d.timeScales(&d.jac, q, out[:d.M.NumVertices()])
	// Viscous stiffness: the diffusion operator's diagonal weight joins
	// the pseudo-timestep scale so the continuation stays robust when
	// diffusion dominates convection.
	if d.Opts.Viscosity > 0 {
		mu := d.Opts.Viscosity
		edges := d.edges
		dw := d.diffW[:len(edges)] // bce: ties len(dw) to the edge range; the ei index is then unchecked
		for ei, e := range edges {
			w := mu * dw[ei]
			if w < 0 {
				w = -w
			}
			out[e.a] += w //lint:bce-ok the accumulation scatters through the edge endpoints; both are data-dependent
			out[e.b] += w //lint:bce-ok the accumulation scatters through the edge endpoints; both are data-dependent
		}
	}
}

// timeScales overwrites out — one entry per time-scale row of the plan —
// with the spectral-radius sums of the plan's edges and of the boundary
// faces of the plan's rows.
func (d *Discretization) timeScales(p *jacobianPlan, q, out []float64) {
	clear(out)
	d.timeScaleEdges(p, q, out)
	ws := d.getWS()
	qa := ws.qa[:d.Sys.B()]
	rows := p.bndRow[:len(p.bnd)] // bce: the boundary index serves both lists unchecked
	for i, v := range p.bnd {
		d.gather(q, v, qa)                                              //lint:bce-ok the gathered row offset is v*b, a product prove cannot relate to len(q)
		out[rows[i]] += d.Sys.SpectralRadius(qa, d.Geo.BoundaryArea[v]) //lint:bce-ok the boundary vertex and its time-scale row come from the plan's lists; both are data-dependent
	}
	d.putWS(ws)
}
