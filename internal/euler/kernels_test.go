package euler

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"petscfun3d/internal/mesh"
	"petscfun3d/internal/par"
	"petscfun3d/internal/sparse"
)

// The generic sweep — gather + NumFlux + scatterAdd through the System
// interface — is the oracle of the edge kernels. The kernels promise its
// bits, not just its values: every expression keeps the operand order of
// the interface methods, so a Newton history computed through a kernel
// repeats the one computed through the interface to the last bit.
//
// Scope of the bitwise assertion: the Go compiler does not contract
// x*y+z into a fused multiply-add on amd64 — the architecture CI and
// bench/ run on — so equal expressions give equal bits there. On
// architectures where it may fuse (arm64, ppc64le, s390x, riscv64) the
// kernel and the oracle are different statement sequences and can fuse
// differently, so there the comparison is to 1e-12 relative.
var bitwiseArch = runtime.GOARCH == "amd64" || runtime.GOARCH == "386"

// sameFloat reports whether a kernel value matches the oracle's: the
// same bits (any NaN matching any NaN) where the contract is bitwise.
func sameFloat(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	if bitwiseArch {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= 1e-12*(math.Abs(got)+math.Abs(want))
}

func requireSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: entry %d is %v (%#x), the generic sweep gives %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// refEdges is the generic first-order sweep over the listed edge
// positions (nil: every edge), accumulating into r.
func refEdges(d *Discretization, q, r []float64, idx []int32) {
	b := d.Sys.B()
	qa, qb := make([]float64, b), make([]float64, b)
	flux, scratch := make([]float64, b), make([]float64, b)
	one := func(e edgeData) {
		d.gather(q, e.a, qa)
		d.gather(q, e.b, qb)
		NumFlux(d.Sys, qa, qb, e.n, flux, scratch)
		d.scatterAdd(r, e.a, flux, +1)
		d.scatterAdd(r, e.b, flux, -1)
	}
	if idx == nil {
		for _, e := range d.edges {
			one(e)
		}
		return
	}
	for _, ei := range idx {
		one(d.edges[ei])
	}
}

func refResidual(d *Discretization, q []float64) []float64 {
	r := make([]float64, d.N())
	refEdges(d, q, r, nil)
	d.boundaryResidual(q, r)
	return r
}

// refAssembleJacobian is the assembly as it was before the plan: four
// BlockAt searches per edge and the block arithmetic through the
// interface. Kept here as the block-for-block reference.
func refAssembleJacobian(t *testing.T, d *Discretization, q []float64) *sparse.BCSR {
	t.Helper()
	a := d.JacobianPattern()
	b := d.Sys.B()
	qa, qb := make([]float64, b), make([]float64, b)
	jl, jr := make([]float64, b*b), make([]float64, b*b)
	addBlock := func(i, j int32, blk []float64, sign float64) {
		dst, ok := a.BlockAt(int(i), int(j))
		if !ok {
			t.Fatalf("block (%d,%d) missing from pattern", i, j)
		}
		for k := range blk {
			dst[k] += sign * blk[k]
		}
	}
	for _, e := range d.edges {
		d.gather(q, e.a, qa)
		d.gather(q, e.b, qb)
		lam := d.Sys.SpectralRadius(qa, e.n)
		if l2 := d.Sys.SpectralRadius(qb, e.n); l2 > lam {
			lam = l2
		}
		d.Sys.PhysJacobian(qa, e.n, jl)
		d.Sys.PhysJacobian(qb, e.n, jr)
		for k := range jl {
			jl[k] *= 0.5
			jr[k] *= 0.5
		}
		for c := 0; c < b; c++ {
			jl[c*b+c] += 0.5 * lam
			jr[c*b+c] -= 0.5 * lam
		}
		addBlock(e.a, e.a, jl, +1)
		addBlock(e.a, e.b, jr, +1)
		addBlock(e.b, e.a, jl, -1)
		addBlock(e.b, e.b, jr, -1)
	}
	inf := d.Sys.Freestream()
	for v := int32(0); v < int32(d.M.NumVertices()); v++ {
		kind := d.M.BKind[v]
		if kind == mesh.BNone {
			continue
		}
		s := d.Geo.BoundaryArea[v]
		d.gather(q, v, qa)
		dst, _ := a.BlockAt(int(v), int(v))
		switch kind {
		case mesh.BInflow, mesh.BOutflow:
			lam := d.Sys.SpectralRadius(qa, s)
			if l2 := d.Sys.SpectralRadius(inf, s); l2 > lam {
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
	return a
}

func refTimeScales(d *Discretization, q []float64) []float64 {
	b := d.Sys.B()
	out := make([]float64, d.M.NumVertices())
	qa, qb := make([]float64, b), make([]float64, b)
	for _, e := range d.edges {
		d.gather(q, e.a, qa)
		d.gather(q, e.b, qb)
		lam := d.Sys.SpectralRadius(qa, e.n)
		if l2 := d.Sys.SpectralRadius(qb, e.n); l2 > lam {
			lam = l2
		}
		out[e.a] += lam
		out[e.b] += lam
	}
	for v, kind := range d.M.BKind {
		if kind == mesh.BNone {
			continue
		}
		d.gather(q, int32(v), qa)
		out[v] += d.Sys.SpectralRadius(qa, d.Geo.BoundaryArea[v])
	}
	return out
}

// roughState is a perturbed, non-freestream state in d's layout with no
// symmetry between components or vertices. For the compressible system
// a few vertices get an energy too small for their momentum, so the
// p < 1e-12 clamp of the spectral radius is taken.
func roughState(d *Discretization) []float64 {
	q := d.FreestreamVector()
	b := d.Sys.B()
	for v := 0; v < d.M.NumVertices(); v++ {
		x := d.M.Coords[v]
		for c := 0; c < b; c++ {
			q[d.idx(int32(v), c)] += 0.07*math.Sin(1.3*x.X+0.7*x.Y-0.9*x.Z+float64(c)) +
				0.013*math.Cos(float64(7*v+3*c))
		}
		if b == 5 && v%11 == 3 {
			q[d.idx(int32(v), 4)] = 0.01
		}
	}
	return q
}

// kernelSystems are the two systems with parameters that are not powers
// of two: scaling by β = 4 is exact, so the customary value would let a
// reassociation such as β(θa+θb) for βθa+βθb pass unnoticed.
func kernelSystems() []System {
	return []System{&Incompressible{Beta: 3.7, U0: 1}, NewCompressible()}
}

func TestKernelsMatchGenericSweepBitwise(t *testing.T) {
	m := testMesh(t, 7, 6, 5)
	nv := m.NumVertices()
	for _, sys := range kernelSystems() {
		for _, layout := range []sparse.Layout{sparse.Interlaced, sparse.NonInterlaced} {
			for _, ordering := range []string{"sorted", "colored"} {
				name := fmt.Sprintf("%s/%v/%s", sys.Name(), layout, ordering)
				t.Run(name, func(t *testing.T) {
					d := newDisc(t, m, sys, Options{Order: 1, Layout: layout, EdgeOrdering: ordering})
					q := roughState(d)
					want := refResidual(d, q)

					r := make([]float64, d.N())
					for i := range r {
						r[i] = math.NaN() // Residual must overwrite, not accumulate
					}
					d.Residual(q, r)
					requireSame(t, "Residual", r, want)

					// The split sweep: interior then frontier, no zeroing
					// in between, against the generic sweep of the same
					// lists. Owned rows are complete; ghost rows hold the
					// same partial sums on both sides.
					owned := func(v int32) bool { return v%3 != 0 }
					interior, frontier := d.SplitEdges(owned)
					if len(interior) == 0 || len(frontier) == 0 {
						t.Fatal("split has an empty side; the test would not cover ResidualEdges")
					}
					got, ref := make([]float64, d.N()), make([]float64, d.N())
					d.ResidualEdges(q, got, interior)
					d.ResidualEdges(q, got, frontier)
					d.ResidualEdges(q, got, nil) // no edge, not every edge
					refEdges(d, q, ref, interior)
					refEdges(d, q, ref, frontier)
					requireSame(t, "ResidualEdges", got, ref)

					for _, p := range []*par.Pool{nil, par.New(1)} {
						rp := make([]float64, d.N())
						if err := d.ResidualParallel(q, rp, p); err != nil {
							t.Fatal(err)
						}
						p.Close()
						requireSame(t, fmt.Sprintf("ResidualParallel(%d workers)", p.Workers()), rp, want)
					}

					wantTS := refTimeScales(d, q)
					requireSame(t, "TimeScales", d.TimeScales(q), wantTS)
					ts := make([]float64, nv)
					for i := range ts {
						ts[i] = math.NaN() // TimeScalesInto must overwrite
					}
					d.TimeScalesInto(q, ts)
					requireSame(t, "TimeScalesInto", ts, wantTS)

					if layout != sparse.Interlaced {
						return // blocks exist in the interlaced layout only
					}
					a := d.JacobianPattern()
					for i := range a.Val {
						a.Val[i] = math.NaN() // AssembleJacobian must zero-fill
					}
					if err := d.AssembleJacobian(q, a); err != nil {
						t.Fatal(err)
					}
					requireSame(t, "AssembleJacobian", a.Val, refAssembleJacobian(t, d, q).Val)
				})
			}
		}
	}
}

// TestKernelTestDataDistinguishesOperandOrders: the bitwise test only
// bites if its data separates the expressions a kernel could confuse.
// The compressible system has two normal velocities — PhysFlux divides
// the momenta by ρ first, SpectralRadius divides the projection last —
// and they must stay different; the state must also take the pressure
// clamp on some edges and not on others.
func TestKernelTestDataDistinguishesOperandOrders(t *testing.T) {
	m := testMesh(t, 7, 6, 5)
	sys := NewCompressible()
	d := newDisc(t, m, sys, Options{Order: 1})
	q := roughState(d)
	differ, clamped, free := 0, 0, 0
	for _, e := range d.edges {
		s := q[int(e.a)*5 : int(e.a)*5+5]
		first := s[1]/s[0]*e.n.X + s[2]/s[0]*e.n.Y + s[3]/s[0]*e.n.Z
		last := (s[1]*e.n.X + s[2]*e.n.Y + s[3]*e.n.Z) / s[0]
		if first != last {
			differ++
		}
		if sys.Pressure(s) < 1e-12 {
			clamped++
		} else {
			free++
		}
	}
	if differ == 0 {
		t.Error("divide-first and divide-last normal velocities agree on every edge")
	}
	if clamped == 0 || free == 0 {
		t.Errorf("pressure clamp taken on %d edges and not on %d; want both", clamped, free)
	}
}

// TestSharedDiscretizationRace: the distributed ranks are goroutines
// over one Discretization, so everything a sweep reads from it must be
// built by NewDiscretization. Run under -race.
func TestSharedDiscretizationRace(t *testing.T) {
	m := testMesh(t, 6, 5, 4)
	for _, sys := range systems() {
		d := newDisc(t, m, sys, Options{Order: 1})
		q := smoothState(d)
		want := refResidual(d, q)
		wantJac := refAssembleJacobian(t, d, q)
		d = newDisc(t, m, sys, Options{Order: 1}) // a fresh one: nothing warmed up
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := make([]float64, d.N())
				a := d.JacobianPattern()
				for rep := 0; rep < 3; rep++ {
					d.Residual(q, r)
					if err := d.AssembleJacobian(q, a); err != nil {
						t.Error(err)
						return
					}
				}
				for i := range r {
					if !sameFloat(r[i], want[i]) {
						t.Errorf("%s: shared residual differs at %d", sys.Name(), i)
						return
					}
				}
				for i := range a.Val {
					if !sameFloat(a.Val[i], wantJac.Val[i]) {
						t.Errorf("%s: shared Jacobian differs at %d", sys.Name(), i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestSweepsSteadyStateAllocs: after the first call every first-order
// sweep entry point runs without allocating.
func TestSweepsSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race mode drops sync.Pool items by design")
	}
	m := testMesh(t, 8, 6, 5)
	for _, sys := range systems() {
		d := newDisc(t, m, sys, Options{Order: 1})
		q := smoothState(d)
		r := make([]float64, d.N())
		ts := make([]float64, m.NumVertices())
		a := d.JacobianPattern()
		interior, _ := d.SplitEdges(func(v int32) bool { return v%2 == 0 })
		calls := map[string]func(){
			"Residual":       func() { d.Residual(q, r) },
			"ResidualEdges":  func() { d.ResidualEdges(q, r, interior) },
			"TimeScalesInto": func() { d.TimeScalesInto(q, ts) },
			"AssembleJacobian": func() {
				if err := d.AssembleJacobian(q, a); err != nil {
					t.Fatal(err)
				}
			},
		}
		for name, call := range calls {
			call() // the first call warms the workspace pool
			if avg := testing.AllocsPerRun(20, call); avg != 0 {
				t.Errorf("%s %s allocates %.2f objects per call", sys.Name(), name, avg)
			}
		}
	}
}

func TestAssembleJacobianRejectsForeignPattern(t *testing.T) {
	m := testMesh(t, 4, 3, 3)
	d := newDisc(t, m, NewIncompressible(), Options{Order: 1})
	q := d.FreestreamVector()
	// Same block count, block size and row lengths as JacobianPattern,
	// but the last row's diagonal block is traded for a non-neighbor.
	good := d.JacobianPattern()
	rows := make([][]int32, good.NB)
	for i := range rows {
		rows[i] = append([]int32(nil), good.ColIdx[good.RowPtr[i]:good.RowPtr[i+1]]...)
	}
	last := rows[good.NB-1]
	stranger := int32(0)
	for slices.Contains(last, stranger) {
		stranger++
	}
	last[slices.Index(last, int32(good.NB-1))] = stranger
	bad := sparse.NewBCSRPattern(good.NB, 4, rows)
	if len(bad.ColIdx) != len(good.ColIdx) {
		t.Fatalf("foreign pattern has %d blocks, want %d", len(bad.ColIdx), len(good.ColIdx))
	}
	if err := d.AssembleJacobian(q, bad); err == nil {
		t.Error("matrix with a foreign pattern of the same size accepted")
	}
}

// FuzzEdgeFlux checks one edge of either flux kernel against NumFlux,
// bitwise (see bitwiseArch), in both layouts' strides, and that the
// edge's contribution is antisymmetric: what it adds to a it subtracts
// from b. The seed corpus runs under plain go test.
func FuzzEdgeFlux(f *testing.F) {
	inc, com := NewIncompressible().Freestream(), NewCompressible().Freestream()
	// Freestream on both sides.
	f.Add(false, inc[0], inc[1], inc[2], inc[3], 0.0, inc[0], inc[1], inc[2], inc[3], 0.0, 0.3, -0.2, 0.5)
	f.Add(true, com[0], com[1], com[2], com[3], com[4], com[0], com[1], com[2], com[3], com[4], 0.3, -0.2, 0.5)
	// Zero normal.
	f.Add(false, 0.1, 1.0, 0.2, -0.3, 0.0, -0.1, 0.9, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0)
	f.Add(true, 1.0, 0.5, 0.1, 0.0, 2.0, 1.1, 0.4, 0.0, 0.1, 2.1, 0.0, 0.0, 0.0)
	// Near-vacuum density.
	f.Add(true, 1e-300, 1e-301, 0.0, 0.0, 1e-300, 1.0, 0.5, 0.0, 0.0, 2.0, 0.1, 0.2, 0.3)
	// Negative pressure (energy below the kinetic energy): the clamp.
	f.Add(true, 1.0, 2.0, 1.0, 0.5, 0.1, 1.0, 0.5, 0.0, 0.0, 2.0, -0.4, 0.1, 0.2)
	f.Add(true, 1.0, 0.5, 0.0, 0.0, 2.0, 0.9, 3.0, 0.0, 1.0, 0.0, 0.2, 0.2, -0.1)
	f.Fuzz(func(t *testing.T, compressible bool,
		a0, a1, a2, a3, a4, b0, b1, b2, b3, b4, nx, ny, nz float64) {
		in := []float64{a0, a1, a2, a3, a4, b0, b1, b2, b3, b4, nx, ny, nz}
		for _, x := range in {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("non-finite input")
			}
		}
		var sys System = &Incompressible{Beta: 3.7, U0: 1} // not a power of two, see kernelSystems
		if compressible {
			sys = NewCompressible()
		}
		b := sys.B()
		qa, qb := in[0:b], in[5:5+b]
		n := mesh.Vec3{X: nx, Y: ny, Z: nz}
		flux, scratch := make([]float64, b), make([]float64, b)
		NumFlux(sys, qa, qb, n, flux, scratch)
		want := make([]float64, 2*b)
		for c, fc := range flux { // as scatterAdd accumulates into a zeroed residual
			want[c] += +1 * fc
			want[b+c] += -1 * fc
		}
		edges := []edgeData{{a: 0, b: 1, n: n}}
		run := func(q, r []float64, sv, sc int) {
			switch s := sys.(type) {
			case *Incompressible:
				fluxEdges4(s.Beta, edges, nil, q, r, sv, sc)
			case *Compressible:
				fluxEdges5(s.Gamma, edges, nil, q, r, sv, sc)
			}
		}
		// Interlaced: (b, 1).
		q := append(append([]float64(nil), qa...), qb...)
		r := make([]float64, 2*b)
		run(q, r, b, 1)
		// Non-interlaced over two vertices: (1, 2).
		qn, rn := make([]float64, 2*b), make([]float64, 2*b)
		for c := 0; c < b; c++ {
			qn[2*c], qn[2*c+1] = qa[c], qb[c]
		}
		run(qn, rn, 1, 2)
		for c := 0; c < b; c++ {
			for v := 0; v < 2; v++ {
				if !sameFloat(r[v*b+c], want[v*b+c]) {
					t.Fatalf("%s component %d vertex %d: kernel %v (%#x), NumFlux %v (%#x)", sys.Name(), c, v,
						r[v*b+c], math.Float64bits(r[v*b+c]), want[v*b+c], math.Float64bits(want[v*b+c]))
				}
				if !sameFloat(rn[2*c+v], want[v*b+c]) {
					t.Fatalf("%s component %d vertex %d: strided kernel %v, NumFlux %v", sys.Name(), c, v,
						rn[2*c+v], want[v*b+c])
				}
			}
			if !(r[c] == -r[b+c]) && !(math.IsNaN(r[c]) && math.IsNaN(r[b+c])) {
				t.Fatalf("%s component %d: edge adds %v to a and %v to b", sys.Name(), c, r[c], r[b+c])
			}
		}
	})
}

// BenchmarkFluxSweep times one first-order interior sweep on the
// RCM-ordered 22k-vertex wing (the seq-22k workload's mesh): the generic
// sweep through the interface against the edge kernel, in both layouts
// and both edge orderings (Table 1's interlacing and reordering rows,
// flux only), and the kernel over an explicit edge list (ResidualEdges'
// shape).
func BenchmarkFluxSweep(b *testing.B) {
	m, err := mesh.GenerateWingN(22677)
	if err != nil {
		b.Fatal(err)
	}
	m = m.Renumber(mesh.RCM(m))
	for _, sys := range systems() {
		for _, ordering := range []string{"sorted", "colored"} {
			for _, layout := range []sparse.Layout{sparse.Interlaced, sparse.NonInterlaced} {
				d := newDisc(b, m, sys, Options{Order: 1, Layout: layout, EdgeOrdering: ordering})
				q := roughState(d)
				r := make([]float64, d.N())
				all := make([]int32, len(d.edges))
				for i := range all {
					all[i] = int32(i)
				}
				run := func(name string, sweep func()) {
					b.Run(fmt.Sprintf("%s/%s/%v/%s", sys.Name(), ordering, layout, name), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							sweep()
						}
					})
				}
				run("generic", func() { refEdges(d, q, r, nil) })
				run("kernel", func() { d.fluxEdges(d.edges, nil, q, r) })
				run("kernel-list", func() { d.fluxEdges(d.edges, all, q, r) })
			}
		}
	}
}
