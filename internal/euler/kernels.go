package euler

import (
	"fmt"
	"math"

	"petscfun3d/internal/sparse"
)

// The first-order edge kernels: one family per system, behind every
// first-order sweep entry point (Residual, ResidualEdges, the threaded
// shard, the edge loop of AssembleJacobian and of TimeScalesInto).
//
// The flux kernels have every System call of NumFlux written out, so
// the loop body is straight-line arithmetic the compiler keeps in
// registers, and the subexpressions PhysFlux and SpectralRadius share
// (θ, |S|², p) are computed once per edge. The operand order of every
// expression is NumFlux's and scatterAdd's — that is the contract: the
// kernels are bitwise equal to the sweep written with gather + NumFlux
// + scatterAdd through the interface, which stays as the reference for
// second order, the boundary closure and the tests (DESIGN.md §10).
//
// State and residual are addressed through a (vertex stride, component
// stride) pair — (b, 1) interlaced, (1, nv) non-interlaced — so one
// body serves both layouts. idx selects the edges to sweep: nil means
// every edge of edges in order, otherwise the listed positions.

// strides returns the (vertex, component) strides of the layout.
func (d *Discretization) strides() (sv, sc int) {
	if d.Opts.Layout == sparse.Interlaced {
		return d.Sys.B(), 1
	}
	return 1, d.M.NumVertices()
}

// fluxEdges accumulates the first-order numerical flux of the selected
// edges into r (+ at the edge's a endpoint, − at b) without zeroing it.
// q and r are cut to N() scalars first: a vector kernel indexes them
// through the edge endpoints unchecked, and NewDiscretization has
// checked that every endpoint is a vertex.
func (d *Discretization) fluxEdges(edges []edgeData, idx []int32, q, r []float64) {
	sv, sc := d.strides()
	n := d.N()
	q, r = q[:n], r[:n]
	switch sys := d.Sys.(type) {
	case *Incompressible:
		kern.sweepFlux4(sys.Beta, edges, idx, q, r, sv, sc)
	case *Compressible:
		fluxEdges5(sys.Gamma, edges, idx, q, r, sv, sc)
	default:
		// Internal invariant: NewDiscretization rejects systems without an edge kernel
		panic("euler: fluxEdges: unknown system")
	}
}

// checkSystem reports whether sys has an edge-kernel family.
func checkSystem(sys System) error {
	switch sys.(type) {
	case *Incompressible, *Compressible:
		return nil
	}
	return fmt.Errorf("euler: no edge kernels for system %T", sys)
}

// edgeKernels is one family of flux kernels. The Go family is the
// kernels of this file; an assembly family adds a vector kernel for the
// interlaced b = 4 sweep that computes the same bits — the same
// expressions in the same operand order, every vertex receiving its
// edges' contributions in edge order — so which family runs is a
// property of the host, not of the result (DESIGN.md §10).
type edgeKernels struct {
	name string
	// flux4 sweeps the selected edges of the interlaced (sv, sc) = (4, 1)
	// b = 4 flux four at a time, as fluxEdges4 would, and returns how
	// many it swept: the largest multiple of four, or fewer when it
	// stops before a group holding a position outside edges. nil in the
	// Go family.
	flux4 func(beta float64, edges []edgeData, idx []int32, q, r []float64) int
}

// goKernels is the Go family: the oracle, and what runs on every
// architecture and host without an assembly family.
var goKernels = edgeKernels{name: "Go"}

// kern is the family the sweeps run, and avx2Kernels the assembly family
// the host supports (nil without one). Both are set once, at package
// init, from CPUID (kernels_amd64.go) and never change.
var (
	kern        = &goKernels
	avx2Kernels *edgeKernels
)

// KernelFamily names the family of flux kernels this process runs: "AVX2"
// on amd64 hosts that report it, "Go" everywhere else. The AVX2 family's
// vector kernel serves the interlaced incompressible sweep only; see
// Discretization.FluxKernelFamily.
func KernelFamily() string { return kern.name }

// FluxKernelFamily names the family whose kernel sweeps d's first-order
// edges: the process's family where it has a kernel for d's system and
// layout, "Go" otherwise.
func (d *Discretization) FluxKernelFamily() string {
	if sv, sc := d.strides(); kern.flux4 != nil && d.Sys.B() == 4 && sv == 4 && sc == 1 {
		return kern.name
	}
	return goKernels.name
}

// sweepFlux4 is the b = 4 flux sweep of family k: its vector kernel over
// the leading edges where it has one for the layout, then fluxEdges4
// over the 0–3 edges left, after them, so every vertex still receives
// its contributions in edge order.
func (k *edgeKernels) sweepFlux4(beta float64, edges []edgeData, idx []int32, q, r []float64, sv, sc int) {
	if k.flux4 != nil && sv == 4 && sc == 1 {
		n := k.flux4(beta, edges, idx, q, r)
		if idx == nil {
			edges = edges[n:]
		} else {
			idx = idx[n:]
		}
	}
	fluxEdges4(beta, edges, idx, q, r, sv, sc)
}

// fluxEdges4 is the incompressible (p, u, v, w) flux kernel.
func fluxEdges4(beta float64, edges []edgeData, idx []int32, q, r []float64, sv, sc int) {
	n := len(edges)
	if idx != nil {
		n = len(idx)
	}
	for k := 0; k < n; k++ {
		ei := k
		if idx != nil {
			ei = int(idx[k]) //lint:bce-ok k runs to len(idx) only when idx is non-nil, a relation prove does not carry through the nil test
		}
		e := &edges[ei] //lint:bce-ok the edge position is data-dependent when it comes from idx
		nx, ny, nz := e.n.X, e.n.Y, e.n.Z
		ia, ib := int(e.a)*sv, int(e.b)*sv
		pa, ua, va, wa := q[ia], q[ia+sc], q[ia+2*sc], q[ia+3*sc] //lint:bce-ok gather through the edge endpoint and the layout strides is data-dependent
		pb, ub, vb, wb := q[ib], q[ib+sc], q[ib+2*sc], q[ib+3*sc] //lint:bce-ok gather through the edge endpoint and the layout strides is data-dependent
		// θ = u·S serves PhysFlux and SpectralRadius alike.
		ta := ua*nx + va*ny + wa*nz
		tb := ub*nx + vb*ny + wb*nz
		s2 := nx*nx + ny*ny + nz*nz
		lam := math.Abs(ta) + math.Sqrt(ta*ta+beta*s2)
		if l2 := math.Abs(tb) + math.Sqrt(tb*tb+beta*s2); l2 > lam {
			lam = l2
		}
		hl := 0.5 * lam
		f0 := 0.5*(beta*ta+beta*tb) - hl*(pb-pa)
		f1 := 0.5*((ua*ta+pa*nx)+(ub*tb+pb*nx)) - hl*(ub-ua)
		f2 := 0.5*((va*ta+pa*ny)+(vb*tb+pb*ny)) - hl*(vb-va)
		f3 := 0.5*((wa*ta+pa*nz)+(wb*tb+pb*nz)) - hl*(wb-wa)
		r[ia] += f0      //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ia+sc] += f1   //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ia+2*sc] += f2 //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ia+3*sc] += f3 //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ib] -= f0      //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ib+sc] -= f1   //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ib+2*sc] -= f2 //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ib+3*sc] -= f3 //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
	}
}

// fluxEdges5 is the compressible (ρ, ρu, ρv, ρw, E) flux kernel. The
// two normal velocities are different expressions on purpose: PhysFlux
// divides the momenta by ρ first, SpectralRadius divides the projected
// momentum last, and they round differently.
func fluxEdges5(gamma float64, edges []edgeData, idx []int32, q, r []float64, sv, sc int) {
	g1 := gamma - 1
	n := len(edges)
	if idx != nil {
		n = len(idx)
	}
	for k := 0; k < n; k++ {
		ei := k
		if idx != nil {
			ei = int(idx[k]) //lint:bce-ok k runs to len(idx) only when idx is non-nil, a relation prove does not carry through the nil test
		}
		e := &edges[ei] //lint:bce-ok the edge position is data-dependent when it comes from idx
		nx, ny, nz := e.n.X, e.n.Y, e.n.Z
		ia, ib := int(e.a)*sv, int(e.b)*sv
		ra, xa, ya, za, ea := q[ia], q[ia+sc], q[ia+2*sc], q[ia+3*sc], q[ia+4*sc] //lint:bce-ok gather through the edge endpoint and the layout strides is data-dependent
		rb, xb, yb, zb, eb := q[ib], q[ib+sc], q[ib+2*sc], q[ib+3*sc], q[ib+4*sc] //lint:bce-ok gather through the edge endpoint and the layout strides is data-dependent
		pa := g1 * (ea - 0.5*(xa*xa+ya*ya+za*za)/ra)
		pb := g1 * (eb - 0.5*(xb*xb+yb*yb+zb*zb)/rb)
		// PhysFlux's normal velocity.
		va := xa/ra*nx + ya/ra*ny + za/ra*nz
		vb := xb/rb*nx + yb/rb*ny + zb/rb*nz
		// SpectralRadius: |u·S| + c|S| with the pressure clamped.
		sn := math.Sqrt(nx*nx + ny*ny + nz*nz)
		ca, cb := pa, pb
		if ca < 1e-12 {
			ca = 1e-12
		}
		if cb < 1e-12 {
			cb = 1e-12
		}
		lam := math.Abs((xa*nx+ya*ny+za*nz)/ra) + math.Sqrt(gamma*ca/ra)*sn
		if l2 := math.Abs((xb*nx+yb*ny+zb*nz)/rb) + math.Sqrt(gamma*cb/rb)*sn; l2 > lam {
			lam = l2
		}
		hl := 0.5 * lam
		f0 := 0.5*(ra*va+rb*vb) - hl*(rb-ra)
		f1 := 0.5*((xa*va+pa*nx)+(xb*vb+pb*nx)) - hl*(xb-xa)
		f2 := 0.5*((ya*va+pa*ny)+(yb*vb+pb*ny)) - hl*(yb-ya)
		f3 := 0.5*((za*va+pa*nz)+(zb*vb+pb*nz)) - hl*(zb-za)
		f4 := 0.5*((ea+pa)*va+(eb+pb)*vb) - hl*(eb-ea)
		r[ia] += f0      //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ia+sc] += f1   //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ia+2*sc] += f2 //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ia+3*sc] += f3 //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ia+4*sc] += f4 //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ib] -= f0      //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ib+sc] -= f1   //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ib+2*sc] -= f2 //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ib+3*sc] -= f3 //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
		r[ib+4*sc] -= f4 //lint:bce-ok scatter through the edge endpoint and the layout strides is data-dependent
	}
}

// timeScaleEdges adds each of the plan's edges' larger spectral radius
// to the time-scale rows of both of its endpoints in out.
func (d *Discretization) timeScaleEdges(p *jacobianPlan, q, out []float64) {
	sv, sc := d.strides()
	switch sys := d.Sys.(type) {
	case *Incompressible:
		timeScaleEdges4(sys, d.edges, p.idx, p.ra, p.rb, q, out, sv, sc)
	case *Compressible:
		timeScaleEdges5(sys, d.edges, p.idx, p.ra, p.rb, q, out, sv, sc)
	default:
		// Internal invariant: NewDiscretization rejects systems without an edge kernel
		panic("euler: timeScaleEdges: unknown system")
	}
}

// timeScaleEdges4 and timeScaleEdges5 call the system's own
// SpectralRadius on its concrete type — a static call on stack states,
// the same arithmetic the flux kernels write out. idx as in the flux
// kernels (nil sweeps every edge into the rows of its endpoints); with
// idx, swept edge k feeds rows ra[k] and rb[k].
func timeScaleEdges4(sys *Incompressible, edges []edgeData, idx, ra, rb []int32, q, out []float64, sv, sc int) {
	var qa, qb [4]float64
	n := len(edges)
	if idx != nil {
		n = len(idx)
	}
	for k := 0; k < n; k++ {
		var e *edgeData
		var oa, ob int
		if idx == nil {
			e = &edges[k]
			oa, ob = int(e.a), int(e.b)
		} else {
			e = &edges[idx[k]]
			oa, ob = int(ra[k]), int(rb[k])
		}
		ia, ib := int(e.a)*sv, int(e.b)*sv
		for c := range qa {
			qa[c], qb[c] = q[ia+c*sc], q[ib+c*sc] //lint:bce-ok gather through the edge endpoint and the layout strides is data-dependent
		}
		lam := sys.SpectralRadius(qa[:], e.n)
		if l2 := sys.SpectralRadius(qb[:], e.n); l2 > lam {
			lam = l2
		}
		out[oa] += lam
		out[ob] += lam
	}
}

func timeScaleEdges5(sys *Compressible, edges []edgeData, idx, ra, rb []int32, q, out []float64, sv, sc int) {
	var qa, qb [5]float64
	n := len(edges)
	if idx != nil {
		n = len(idx)
	}
	for k := 0; k < n; k++ {
		var e *edgeData
		var oa, ob int
		if idx == nil {
			e = &edges[k]
			oa, ob = int(e.a), int(e.b)
		} else {
			e = &edges[idx[k]]
			oa, ob = int(ra[k]), int(rb[k])
		}
		ia, ib := int(e.a)*sv, int(e.b)*sv
		for c := range qa {
			qa[c], qb[c] = q[ia+c*sc], q[ib+c*sc] //lint:bce-ok gather through the edge endpoint and the layout strides is data-dependent
		}
		lam := sys.SpectralRadius(qa[:], e.n)
		if l2 := sys.SpectralRadius(qb[:], e.n); l2 > lam {
			lam = l2
		}
		out[oa] += lam
		out[ob] += lam
	}
}
