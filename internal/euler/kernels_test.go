package euler

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"petscfun3d/internal/cpuid"
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

// families returns the flux-kernel families this host runs: the Go
// kernels, and the assembly ones where the host has them.
func families() []*edgeKernels {
	fams := []*edgeKernels{&goKernels}
	if avx2Kernels != nil {
		fams = append(fams, avx2Kernels)
	}
	return fams
}

// useKernels makes fam the family the sweeps run until the test ends.
func useKernels(t testing.TB, fam *edgeKernels) {
	prev := kern
	kern = fam
	t.Cleanup(func() { kern = prev })
}

// refStriped is the generic sweep cut as ResidualParallel cuts it: stripe
// w of nw into its own array, the arrays summed into stripe 0's in
// worker order, then the boundary closure.
func refStriped(d *Discretization, q []float64, nw int) []float64 {
	ne := len(d.edges)
	stripe := func(w int) []float64 {
		idx := make([]int32, 0, ne/nw+1)
		for ei := ne * w / nw; ei < ne*(w+1)/nw; ei++ {
			idx = append(idx, int32(ei))
		}
		r := make([]float64, d.N())
		refEdges(d, q, r, idx)
		return r
	}
	r := stripe(0)
	for w := 1; w < nw; w++ {
		for i, v := range stripe(w) {
			r[i] += v
		}
	}
	d.boundaryResidual(q, r)
	return r
}

// kernelSystems are the two systems with parameters that are not powers
// of two: scaling by β = 4 is exact, so the customary value would let a
// reassociation such as β(θa+θb) for βθa+βθb pass unnoticed.
func kernelSystems() []System {
	return []System{&Incompressible{Beta: 3.7, U0: 1}, NewCompressible()}
}

// TestKernelsMatchGenericSweepBitwise: every first-order entry point,
// under every family the host runs, against the generic sweep. The edge
// lists of length 0–9 and the worker stripes put every tail length of a
// four-edge vector kernel behind it, from either form of idx.
func TestKernelsMatchGenericSweepBitwise(t *testing.T) {
	m := testMesh(t, 7, 6, 5)
	for _, sys := range kernelSystems() {
		for _, layout := range []sparse.Layout{sparse.Interlaced, sparse.NonInterlaced} {
			for _, ordering := range []string{"sorted", "colored"} {
				t.Run(fmt.Sprintf("%s/%v/%s", sys.Name(), layout, ordering), func(t *testing.T) {
					for _, fam := range families() {
						t.Run(fam.name, func(t *testing.T) {
							useKernels(t, fam)
							matchGenericSweep(t, m, sys, layout, ordering)
						})
					}
				})
			}
		}
	}
}

func matchGenericSweep(t *testing.T, m *mesh.Mesh, sys System, layout sparse.Layout, ordering string) {
	d := newDisc(t, m, sys, Options{Order: 1, Layout: layout, EdgeOrdering: ordering})
	q := roughState(d)
	want := refResidual(d, q)

	r := make([]float64, d.N())
	for i := range r {
		r[i] = math.NaN() // Residual must overwrite, not accumulate
	}
	d.Residual(q, r)
	requireSame(t, "Residual", r, want)

	// The split sweep: interior then frontier, no zeroing in between,
	// against the generic sweep of the same lists. Owned rows are
	// complete; ghost rows hold the same partial sums on both sides.
	owned := func(v int32) bool { return v%3 != 0 }
	interior, frontier := d.SplitEdges(owned)
	if len(interior) < 9 || len(frontier) < 9 {
		t.Fatal("split has a side under nine edges; the test would not cover ResidualEdges' tails")
	}
	got, ref := make([]float64, d.N()), make([]float64, d.N())
	d.ResidualEdges(q, got, interior)
	d.ResidualEdges(q, got, frontier)
	d.ResidualEdges(q, got, nil) // no edge, not every edge
	refEdges(d, q, ref, interior)
	refEdges(d, q, ref, frontier)
	requireSame(t, "ResidualEdges", got, ref)

	// Short sweeps, both forms of idx: the first n edges in order, and n
	// listed positions from the far end of the frontier backwards.
	for n := 0; n <= 9; n++ {
		inOrder := make([]int32, n)
		for i := range inOrder {
			inOrder[i] = int32(i)
		}
		got, ref := make([]float64, d.N()), make([]float64, d.N())
		d.fluxEdges(d.edges[:n], nil, q, got)
		refEdges(d, q, ref, inOrder)
		requireSame(t, fmt.Sprintf("the first %d edges", n), got, ref)

		listed := slices.Clone(frontier[len(frontier)-n:])
		slices.Reverse(listed)
		clear(got)
		clear(ref)
		d.ResidualEdges(q, got, listed)
		refEdges(d, q, ref, listed)
		requireSame(t, fmt.Sprintf("ResidualEdges over %d listed edges", n), got, ref)
	}

	// From three workers on, private arrays are folded into the shared
	// residual; four give the fold three of them to keep in worker order.
	for _, p := range []*par.Pool{nil, par.New(1), par.New(2), par.New(3), par.New(4)} {
		rp := make([]float64, d.N())
		if err := d.ResidualParallel(q, rp, p); err != nil {
			t.Fatal(err)
		}
		p.Close()
		requireSame(t, fmt.Sprintf("ResidualParallel(%d workers)", p.Workers()), rp, refStriped(d, q, p.Workers()))
	}

	wantTS := refTimeScales(d, q)
	requireSame(t, "TimeScales", d.TimeScales(q), wantTS)
	ts := make([]float64, m.NumVertices())
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

// FuzzEdgeFlux checks a group of five edges over four vertices — (0,1),
// (1,2), (0,2), (2,3), (3,0): the first four share vertices across the
// lanes of a vector kernel, the fifth is its Go tail — under every
// family, both forms of idx and both layouts' strides, against NumFlux +
// scatterAdd in edge order, bitwise (see bitwiseArch). It also checks
// that the first edge alone is antisymmetric: what it adds to a it
// subtracts from b. The fuzzed inputs are two states and a normal; the
// other states and normals are exact permutations and sign flips of
// them, so the lanes differ. The seed corpus runs under plain go test.
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
	// An incompressible group with no symmetry, and one whose θ overflows.
	f.Add(false, 0.13, 0.9, -0.31, 0.07, 0.0, -0.2, 1.1, 0.05, -0.4, 0.0, 0.31, -0.17, 0.53)
	f.Add(false, 1e200, 1e160, -1e170, 3.0, 0.0, -2.0, 1e155, 1e150, 1.0, 0.0, 1e160, 1e150, -1e145)
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
		states := [4][]float64{qa, qb, make([]float64, b), make([]float64, b)}
		for c := 0; c < b; c++ {
			states[2][c] = qb[(c+1)%b]
			states[3][c] = -qa[b-1-c]
		}
		edges := []edgeData{
			{a: 0, b: 1, n: mesh.Vec3{X: nx, Y: ny, Z: nz}},
			{a: 1, b: 2, n: mesh.Vec3{X: ny, Y: nz, Z: nx}},
			{a: 0, b: 2, n: mesh.Vec3{X: -nz, Y: nx, Z: ny}},
			{a: 2, b: 3, n: mesh.Vec3{X: nx, Y: -nz, Z: -ny}},
			{a: 3, b: 0, n: mesh.Vec3{X: -ny, Y: -nx, Z: nz}},
		}
		// want[v*b+c]: NumFlux and scatterAdd, edge by edge, from zero.
		flux, scratch := make([]float64, b), make([]float64, b)
		want := make([]float64, 4*b)
		for _, e := range edges {
			NumFlux(sys, states[e.a], states[e.b], e.n, flux, scratch)
			for c, fc := range flux {
				want[int(e.a)*b+c] += +1 * fc
				want[int(e.b)*b+c] += -1 * fc
			}
		}
		// Interlaced (b, 1) and non-interlaced over four vertices (1, 4).
		q, qn := make([]float64, 4*b), make([]float64, 4*b)
		for v, st := range states {
			for c, x := range st {
				q[v*b+c], qn[c*4+v] = x, x
			}
		}
		for _, fam := range families() {
			run := func(edges []edgeData, idx []int32, q, r []float64, sv, sc int) {
				switch s := sys.(type) {
				case *Incompressible:
					fam.sweepFlux4(s.Beta, edges, idx, q, r, sv, sc)
				case *Compressible:
					fluxEdges5(s.Gamma, edges, idx, q, r, sv, sc)
				}
			}
			for _, idx := range [][]int32{nil, {0, 1, 2, 3, 4}} {
				r, rn := make([]float64, 4*b), make([]float64, 4*b)
				run(edges, idx, q, r, b, 1)
				run(edges, idx, qn, rn, 1, 4)
				for v := 0; v < 4; v++ {
					for c := 0; c < b; c++ {
						w := want[v*b+c]
						if !sameFloat(r[v*b+c], w) {
							t.Fatalf("%s %s idx %v: vertex %d component %d: kernel %v (%#x), NumFlux %v (%#x)", fam.name, sys.Name(), idx,
								v, c, r[v*b+c], math.Float64bits(r[v*b+c]), w, math.Float64bits(w))
						}
						if !sameFloat(rn[c*4+v], w) {
							t.Fatalf("%s %s idx %v: vertex %d component %d: strided kernel %v, NumFlux %v", fam.name, sys.Name(), idx,
								v, c, rn[c*4+v], w)
						}
					}
				}
			}
			r := make([]float64, 4*b)
			run(edges[:1], nil, q, r, b, 1)
			for c := 0; c < b; c++ {
				if !(r[c] == -r[b+c]) && !(math.IsNaN(r[c]) && math.IsNaN(r[b+c])) {
					t.Fatalf("%s %s component %d: edge adds %v to a and %v to b", fam.name, sys.Name(), c, r[c], r[b+c])
				}
			}
		}
	})
}

// TestEdgeFluxNonFiniteState: a NaN or an infinity in one component of
// one vertex's state gives the same residual from every family and the
// generic sweep — bits, any NaN matching any NaN. The fuzz target skips
// non-finite inputs.
//
// At β > 0 a NaN spectral radius comes only from a NaN θ, which reaches
// every flux component anyway, so `if l2 > lam { lam = l2 }` and a max
// instruction cannot be told apart there. A β < 0 makes θ² + β|S|²
// negative on an edge side with a small θ: the second half puts a NaN
// radius on one side of four vertex-disjoint edges, on the a side in
// even lanes and the b side in odd ones, with the other side finite.
func TestEdgeFluxNonFiniteState(t *testing.T) {
	m := testMesh(t, 5, 4, 4)
	d := newDisc(t, m, &Incompressible{Beta: 3.7, U0: 1}, Options{Order: 1})
	v := int32(m.NumVertices() / 2)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for c := 0; c < 4; c++ {
			q := roughState(d)
			q[d.idx(v, c)] = bad
			want := refResidual(d, q)
			for _, fam := range families() {
				t.Run(fmt.Sprintf("%v/component %d/%s", bad, c, fam.name), func(t *testing.T) {
					useKernels(t, fam)
					r := make([]float64, d.N())
					d.Residual(q, r)
					requireSame(t, "Residual", r, want)
				})
			}
		}
	}

	sys := &Incompressible{Beta: -1, U0: 1}
	n := mesh.Vec3{X: 1}
	var edges []edgeData
	q := make([]float64, 8*4)
	for k := int32(0); k < 4; k++ {
		edges = append(edges, edgeData{a: 2 * k, b: 2*k + 1, n: n})
		small, large := 2*k, 2*k+1 // θ = u: 0.5² − 1 < 0, 2² − 1 > 0
		if k%2 == 1 {
			small, large = large, small
		}
		copy(q[4*small:], []float64{0.3, 0.5, 0.1, -0.2})
		copy(q[4*large:], []float64{-0.1, 2, 0.2, 0.4})
	}
	want := make([]float64, len(q))
	flux, scratch := make([]float64, 4), make([]float64, 4)
	for _, e := range edges {
		NumFlux(sys, q[4*e.a:4*e.a+4], q[4*e.b:4*e.b+4], e.n, flux, scratch)
		for c, fc := range flux {
			want[4*int(e.a)+c] += +1 * fc
			want[4*int(e.b)+c] += -1 * fc
		}
	}
	// A NaN lam stays (lane 0's vertices get NaN); a NaN l2 loses the
	// comparison (lane 1's stay finite).
	if !math.IsNaN(want[0]) || math.IsNaN(want[4*2]) {
		t.Fatal("the one-sided NaN spectral radii do not reach the residual as `if l2 > lam` says; the case tests nothing")
	}
	for _, fam := range families() {
		r := make([]float64, len(q))
		fam.sweepFlux4(sys.Beta, edges, nil, q, r, 4, 1)
		requireSame(t, fam.name+" with a one-sided NaN spectral radius", r, want)
	}
}

// TestEdgeFluxListedPositionOutOfRange: a listed position outside the
// edges panics in every family, as an index out of range, after the
// edges listed before it — the vector kernel stops short of the group
// that holds it and leaves it to the Go kernel.
func TestEdgeFluxListedPositionOutOfRange(t *testing.T) {
	m := testMesh(t, 4, 3, 3)
	d := newDisc(t, m, &Incompressible{Beta: 3.7, U0: 1}, Options{Order: 1})
	q := roughState(d)
	for _, bad := range []int32{int32(len(d.edges)), -1} {
		list := []int32{0, 1, 2, 3, 4, 5, bad, 7, 8}
		want := make([]float64, d.N())
		refEdges(d, q, want, list[:6])
		for _, fam := range families() {
			t.Run(fmt.Sprintf("%d/%s", bad, fam.name), func(t *testing.T) {
				useKernels(t, fam)
				r := make([]float64, d.N())
				func() {
					defer func() {
						if _, ok := recover().(runtime.Error); !ok {
							t.Fatal("no index-out-of-range panic")
						}
					}()
					d.ResidualEdges(q, r, list)
				}()
				requireSame(t, "the edges before the bad position", r, want)
			})
		}
	}
}

// TestEdgeFluxDispatchFollowsCPUID: the sweeps run the AVX2 family
// exactly where CPUID reports AVX2 and the OS saves its registers, and
// the Go family everywhere else; a discretization names the family its
// first-order sweep runs.
func TestEdgeFluxDispatchFollowsCPUID(t *testing.T) {
	m := testMesh(t, 3, 3, 3)
	inter := newDisc(t, m, NewIncompressible(), Options{Order: 1})
	for _, d := range []*Discretization{
		newDisc(t, m, NewIncompressible(), Options{Order: 1, Layout: sparse.NonInterlaced}),
		newDisc(t, m, NewCompressible(), Options{Order: 1}),
	} {
		if got := d.FluxKernelFamily(); got != "Go" {
			t.Errorf("%s %v: flux family %s, want Go", d.Sys.Name(), d.Opts.Layout, got)
		}
	}
	if !cpuid.AVX2 {
		if kern != &goKernels || avx2Kernels != nil || KernelFamily() != "Go" || inter.FluxKernelFamily() != "Go" {
			t.Fatalf("no AVX2 on this host, but the %s family is chosen", kern.name)
		}
		t.Skip("CPUID reports no AVX2: the Go kernels run, and the assembly half is not exercised on this host")
	}
	if avx2Kernels == nil || kern != avx2Kernels || KernelFamily() != "AVX2" || inter.FluxKernelFamily() != "AVX2" {
		t.Fatalf("the host has AVX2, but the %s family is chosen", kern.name)
	}
}

// TestEdgeFluxRecordLayout: the assembly kernel reads an edge record at
// fixed offsets — a and b at 0 and 4, the normal at 8, 16 and 24, 32
// bytes a record.
func TestEdgeFluxRecordLayout(t *testing.T) {
	var e edgeData
	got := [...]uintptr{unsafe.Sizeof(e), unsafe.Offsetof(e.a), unsafe.Offsetof(e.b),
		unsafe.Offsetof(e.n) + unsafe.Offsetof(e.n.X), unsafe.Offsetof(e.n) + unsafe.Offsetof(e.n.Y), unsafe.Offsetof(e.n) + unsafe.Offsetof(e.n.Z)}
	if want := [...]uintptr{32, 0, 4, 8, 16, 24}; got != want {
		t.Fatalf("edgeData size and offsets %v, the assembly assumes %v", got, want)
	}
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
