package euler

import (
	"math"
	"testing"
	"testing/quick"

	"petscfun3d/internal/mesh"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

func testMesh(t testing.TB, nx, ny, nz int) *mesh.Mesh {
	t.Helper()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGeometryVolumesPositive(t *testing.T) {
	m := testMesh(t, 7, 6, 5)
	g, err := BuildGeometry(m)
	if err != nil {
		t.Fatal(err)
	}
	for v, vol := range g.Volumes {
		if vol <= 0 {
			t.Fatalf("vertex %d has nonpositive dual volume %g", v, vol)
		}
	}
	if g.TotalVolume <= 0 {
		t.Fatal("nonpositive total volume")
	}
	// Dual volumes partition the mesh volume: compare against direct tet
	// volume sum.
	var direct float64
	for _, tet := range m.Tets {
		p := [4]mesh.Vec3{m.Coords[tet[0]], m.Coords[tet[1]], m.Coords[tet[2]], m.Coords[tet[3]]}
		direct += math.Abs(tetVolume(p))
	}
	if math.Abs(direct-g.TotalVolume) > 1e-12*direct {
		t.Errorf("total volume %g != tet sum %g", g.TotalVolume, direct)
	}
}

func TestGeometryClosure(t *testing.T) {
	// Interior control volumes are closed: their BoundaryArea must be
	// numerically zero. Boundary vertices must have outward-pointing
	// closure areas.
	m := testMesh(t, 8, 7, 6)
	g, err := BuildGeometry(m)
	if err != nil {
		t.Fatal(err)
	}
	scale := math.Pow(g.TotalVolume/float64(m.NumVertices()), 2.0/3.0)
	for v := 0; v < m.NumVertices(); v++ {
		ba := norm3(g.BoundaryArea[v])
		if m.BKind[v] == mesh.BNone {
			if ba > 1e-10*scale {
				t.Fatalf("interior vertex %d closure defect %g", v, ba)
			}
		} else {
			if ba < 1e-12 {
				t.Fatalf("boundary vertex %d has zero closure area", v)
			}
			// Outward: positive dot with the stored outward unit normal.
			if dot3(g.BoundaryArea[v], m.BNormal[v]) <= 0 {
				t.Fatalf("boundary vertex %d closure area points inward", v)
			}
		}
	}
	// Global closure: all boundary areas sum to zero over a closed mesh.
	var total mesh.Vec3
	for v := range g.BoundaryArea {
		total = add3(total, g.BoundaryArea[v])
	}
	if norm3(total) > 1e-9 {
		t.Errorf("global boundary closure defect %g", norm3(total))
	}
}

func systems() []System {
	return []System{NewIncompressible(), NewCompressible()}
}

// perturbedState returns freestream plus a smooth perturbation, a
// physically valid state for both systems.
func perturbedState(sys System, seed float64) []float64 {
	q := append([]float64(nil), sys.Freestream()...)
	for c := range q {
		q[c] += 0.05 * math.Sin(seed+float64(c))
	}
	return q
}

func TestNumFluxConsistency(t *testing.T) {
	n := mesh.Vec3{X: 0.3, Y: -0.2, Z: 0.5}
	for _, sys := range systems() {
		b := sys.B()
		q := perturbedState(sys, 1.7)
		want := make([]float64, b)
		sys.PhysFlux(q, n, want)
		got := make([]float64, b)
		scratch := make([]float64, b)
		NumFlux(sys, q, q, n, got, scratch)
		for c := 0; c < b; c++ {
			if math.Abs(got[c]-want[c]) > 1e-13 {
				t.Errorf("%s: NumFlux(q,q) component %d = %g, want %g", sys.Name(), c, got[c], want[c])
			}
		}
	}
}

func TestPhysJacobianMatchesFiniteDifference(t *testing.T) {
	n := mesh.Vec3{X: 0.4, Y: 0.1, Z: -0.3}
	for _, sys := range systems() {
		b := sys.B()
		q := perturbedState(sys, 0.9)
		jac := make([]float64, b*b)
		sys.PhysJacobian(q, n, jac)
		f0 := make([]float64, b)
		f1 := make([]float64, b)
		sys.PhysFlux(q, n, f0)
		const h = 1e-7
		for c := 0; c < b; c++ {
			qp := append([]float64(nil), q...)
			qp[c] += h
			sys.PhysFlux(qp, n, f1)
			for r := 0; r < b; r++ {
				fd := (f1[r] - f0[r]) / h
				if math.Abs(fd-jac[c*b+r]) > 1e-5*(1+math.Abs(fd)) { // column-major
					t.Errorf("%s: dF%d/dq%d analytic %g, fd %g", sys.Name(), r, c, jac[c*b+r], fd)
				}
			}
		}
	}
}

func TestSpectralRadiusPositive(t *testing.T) {
	n := mesh.Vec3{X: 1, Y: 2, Z: -2}
	for _, sys := range systems() {
		q := sys.Freestream()
		if sr := sys.SpectralRadius(q, n); sr <= 0 {
			t.Errorf("%s: spectral radius %g", sys.Name(), sr)
		}
	}
}

func newDisc(t testing.TB, m *mesh.Mesh, sys System, opts Options) *Discretization {
	t.Helper()
	d, err := NewDiscretization(m, nil, sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFreestreamInteriorResidualZero(t *testing.T) {
	// At uniform freestream the interior residual vanishes (fluxes of a
	// constant state telescope around closed control volumes).
	m := testMesh(t, 8, 6, 5)
	for _, sys := range systems() {
		d := newDisc(t, m, sys, Options{Order: 1})
		q := d.FreestreamVector()
		r := make([]float64, d.N())
		d.Residual(q, r)
		b := sys.B()
		for v := 0; v < m.NumVertices(); v++ {
			if m.BKind[v] != mesh.BNone {
				continue
			}
			for c := 0; c < b; c++ {
				if math.Abs(r[v*b+c]) > 1e-10 {
					t.Fatalf("%s: interior vertex %d comp %d residual %g", sys.Name(), v, c, r[v*b+c])
				}
			}
		}
		// And the wing taper forces nonzero residual somewhere on the
		// walls (freestream does not satisfy slip there) so the problem
		// is nontrivial.
		max := 0.0
		for _, x := range r {
			if math.Abs(x) > max {
				max = math.Abs(x)
			}
		}
		if max < 1e-8 {
			t.Errorf("%s: freestream is a steady state; problem trivial", sys.Name())
		}
	}
}

// smoothState builds a nonuniform but smooth state in the interlaced
// layout for Jacobian and layout tests.
func smoothState(d *Discretization) []float64 {
	q := d.FreestreamVector()
	b := d.Sys.B()
	for v := 0; v < d.M.NumVertices(); v++ {
		x := d.M.Coords[v]
		for c := 0; c < b; c++ {
			q[v*b+c] += 0.05 * math.Sin(1.3*x.X+0.7*x.Y-0.9*x.Z+float64(c))
		}
	}
	return q
}

func TestAssembledJacobianMatchesFiniteDifference(t *testing.T) {
	// The assembled Jacobian freezes the upwind dissipation coefficient
	// (the standard approximation), so it is exact only where the state
	// jump across a face is zero. At a *uniform* state every interior
	// face has zero jump, making interior rows exact to FD error; rows of
	// boundary vertices retain the (small) frozen-λ error from the
	// farfield jump, checked loosely.
	m := testMesh(t, 5, 4, 4)
	for _, sys := range systems() {
		d := newDisc(t, m, sys, Options{Order: 1})
		q := d.FreestreamVector()
		b := sys.B()
		for i := range q {
			q[i] *= 0.97 // uniform, but not the freestream itself
			q[i] += 0.01
		}
		a := d.JacobianPattern()
		if err := d.AssembleJacobian(q, a); err != nil {
			t.Fatal(err)
		}
		n := d.N()
		// Directional derivative check: A*w vs (R(q+hw)-R(q))/h for a
		// fixed direction w.
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Sin(float64(i)*0.37 + 0.2)
		}
		aw := make([]float64, n)
		a.MulVec(w, aw)
		r0 := make([]float64, n)
		r1 := make([]float64, n)
		d.Residual(q, r0)
		h := 1e-7
		qp := append([]float64(nil), q...)
		for i := range qp {
			qp[i] += h * w[i]
		}
		d.Residual(qp, r1)
		worstInterior, worstAll := 0.0, 0.0
		for i := 0; i < n; i++ {
			fd := (r1[i] - r0[i]) / h
			diff := math.Abs(fd - aw[i])
			if diff > worstAll {
				worstAll = diff
			}
			if m.BKind[i/b] == mesh.BNone && diff > worstInterior {
				worstInterior = diff
			}
		}
		if worstInterior > 5e-5 {
			t.Errorf("%s: interior Jacobian vs FD worst diff %g", sys.Name(), worstInterior)
		}
		if worstAll > 2e-2 {
			t.Errorf("%s: boundary Jacobian vs FD worst diff %g", sys.Name(), worstAll)
		}
	}
}

// TestSpansChargeTheirFormulas: one Residual records exactly one flux
// span (and at second order one gradient span inside it), one
// ResidualParallel one flux span that adds the private-array gather, and
// one AssembleJacobian exactly one jacobian span, each charged its cost
// formulas — the phase, calls, flops and bytes the roofline tables read.
func TestSpansChargeTheirFormulas(t *testing.T) {
	m := testMesh(t, 5, 4, 4)
	const nw = 3
	p := par.New(nw)
	defer p.Close()
	for _, sys := range systems() {
		d1 := newDisc(t, m, sys, Options{Order: 1})
		d2 := newDisc(t, m, sys, Options{Order: 2, Limit: true})
		q := smoothState(d1)
		r := make([]float64, d1.N())
		a := d1.JacobianPattern()
		cases := []struct {
			name string
			run  func() error
			want map[string]prof.PhaseStat
		}{
			{"first-order residual", func() error { d1.Residual(q, r); return nil }, map[string]prof.PhaseStat{
				"flux": {Calls: 1, Flops: d1.SweepFlops(), Bytes: d1.SweepBytes()},
			}},
			{"second-order residual", func() error { d2.Residual(q, r); return nil }, map[string]prof.PhaseStat{
				"flux":     {Calls: 1, Flops: d2.SweepFlops(), Bytes: d2.SweepBytes()},
				"gradient": {Calls: 1, Flops: d2.gradientFlops(), Bytes: d2.gradientBytes()},
			}},
			{"pooled residual", func() error { return d1.ResidualParallel(q, r, p) }, map[string]prof.PhaseStat{
				"flux": {Calls: 1,
					Flops: d1.SweepFlops() + PrivateGatherFlops(nw-1, int64(d1.N())),
					Bytes: d1.SweepBytes() + PrivateGatherBytes(nw-1, int64(d1.N()))},
			}},
			{"jacobian", func() error { return d1.AssembleJacobian(q, a) }, map[string]prof.PhaseStat{
				"jacobian": {Calls: 1, Flops: d1.jacobianFlops(), Bytes: d1.jacobianBytes()},
			}},
		}
		for _, c := range cases {
			prof.Default.Reset()
			prof.Default.Enable()
			err := c.run()
			prof.Default.Disable()
			rep := prof.Default.Report(0)
			prof.Default.Reset()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Phases) != len(c.want) {
				t.Errorf("%s %s: recorded phases %+v, want %v", sys.Name(), c.name, rep.Phases, c.want)
			}
			for _, st := range rep.Phases {
				w, ok := c.want[st.Phase]
				if !ok || st.Calls != w.Calls || st.Flops != w.Flops || st.Bytes != w.Bytes {
					t.Errorf("%s %s: phase %s has %d calls, %d flops, %d bytes; want %+v",
						sys.Name(), c.name, st.Phase, st.Calls, st.Flops, st.Bytes, w)
				}
			}
		}
	}
}

func TestLSQGradientsExactForLinearField(t *testing.T) {
	m := testMesh(t, 6, 5, 5)
	sys := NewIncompressible()
	d := newDisc(t, m, sys, Options{Order: 2})
	b := sys.B()
	// q_c = c + 2x - 3y + 0.5z
	q := make([]float64, d.N())
	for v := 0; v < m.NumVertices(); v++ {
		x := m.Coords[v]
		for c := 0; c < b; c++ {
			q[v*b+c] = float64(c) + 2*x.X - 3*x.Y + 0.5*x.Z
		}
	}
	d.computeGradients(q)
	for v := 0; v < m.NumVertices(); v++ {
		for c := 0; c < b; c++ {
			g := d.grad[v*b*3+c*3 : v*b*3+c*3+3]
			if math.Abs(g[0]-2) > 1e-9 || math.Abs(g[1]+3) > 1e-9 || math.Abs(g[2]-0.5) > 1e-9 {
				t.Fatalf("vertex %d comp %d gradient %v, want (2,-3,0.5)", v, c, g)
			}
		}
	}
}

func TestLimiterBounds(t *testing.T) {
	m := testMesh(t, 6, 5, 4)
	sys := NewIncompressible()
	d := newDisc(t, m, sys, Options{Order: 2, Limit: true})
	q := smoothState(d)
	d.computeGradients(q)
	d.computeLimiters(q)
	for i, a := range d.alpha {
		if a < 0 || a > 1 {
			t.Fatalf("alpha[%d] = %g outside [0,1]", i, a)
		}
	}
}

func TestSecondOrderResidualDiffersFromFirst(t *testing.T) {
	m := testMesh(t, 6, 5, 4)
	sys := NewIncompressible()
	d1 := newDisc(t, m, sys, Options{Order: 1})
	d2 := newDisc(t, m, sys, Options{Order: 2})
	q := smoothState(d1)
	r1 := make([]float64, d1.N())
	r2 := make([]float64, d2.N())
	d1.Residual(q, r1)
	d2.Residual(q, r2)
	var diff float64
	for i := range r1 {
		diff += math.Abs(r1[i] - r2[i])
	}
	if diff < 1e-8 {
		t.Error("second-order residual identical to first-order on smooth nonlinear state")
	}
}

func TestResidualIndependentOfEdgeOrdering(t *testing.T) {
	m := testMesh(t, 6, 5, 4)
	for _, sys := range systems() {
		ds := newDisc(t, m, sys, Options{Order: 1, EdgeOrdering: "sorted"})
		dc := newDisc(t, m, sys, Options{Order: 1, EdgeOrdering: "colored"})
		q := smoothState(ds)
		rs := make([]float64, ds.N())
		rc := make([]float64, dc.N())
		ds.Residual(q, rs)
		dc.Residual(q, rc)
		for i := range rs {
			if math.Abs(rs[i]-rc[i]) > 1e-11 {
				t.Fatalf("%s: residual differs at %d under edge reordering: %g vs %g",
					sys.Name(), i, rs[i], rc[i])
			}
		}
	}
}

func TestResidualLayoutEquivalence(t *testing.T) {
	m := testMesh(t, 6, 5, 4)
	sys := NewCompressible()
	di := newDisc(t, m, sys, Options{Order: 1, Layout: sparse.Interlaced})
	dn := newDisc(t, m, sys, Options{Order: 1, Layout: sparse.NonInterlaced})
	qi := smoothState(di)
	qn := sparse.ConvertLayout(qi, m.NumVertices(), sys.B(), sparse.Interlaced, sparse.NonInterlaced)
	ri := make([]float64, di.N())
	rn := make([]float64, dn.N())
	di.Residual(qi, ri)
	dn.Residual(qn, rn)
	riConv := sparse.ConvertLayout(ri, m.NumVertices(), sys.B(), sparse.Interlaced, sparse.NonInterlaced)
	for i := range rn {
		if math.Abs(rn[i]-riConv[i]) > 1e-11 {
			t.Fatalf("layouts disagree at %d: %g vs %g", i, rn[i], riConv[i])
		}
	}
}

func TestTimeScalesPositive(t *testing.T) {
	m := testMesh(t, 6, 5, 4)
	for _, sys := range systems() {
		d := newDisc(t, m, sys, Options{Order: 1})
		q := d.FreestreamVector()
		ts := d.TimeScales(q)
		for v, s := range ts {
			if s <= 0 {
				t.Fatalf("%s: vertex %d time scale %g", sys.Name(), v, s)
			}
		}
	}
}

func TestNewDiscretizationRejectsBadOptions(t *testing.T) {
	m := testMesh(t, 4, 3, 3)
	if _, err := NewDiscretization(m, nil, NewIncompressible(), Options{Order: 3}); err == nil {
		t.Error("order 3 accepted")
	}
	if _, err := NewDiscretization(m, nil, NewIncompressible(), Options{Order: 1, EdgeOrdering: "zigzag"}); err == nil {
		t.Error("unknown edge ordering accepted")
	}
	// An edge to a vertex the mesh does not have: the vector kernel reads
	// the state through the endpoints unchecked, so it must not get one.
	geo, err := BuildGeometry(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int32{-1, int32(m.NumVertices())} {
		bad := *m
		bad.Edges = append([]mesh.Edge(nil), m.Edges...)
		bad.Edges[len(bad.Edges)-1].B = v
		if _, err := NewDiscretization(&bad, geo, NewIncompressible(), Options{Order: 1}); err == nil {
			t.Errorf("an edge to vertex %d accepted", v)
		}
	}
}

func TestAssembleJacobianRejectsMismatch(t *testing.T) {
	m := testMesh(t, 4, 3, 3)
	d := newDisc(t, m, NewIncompressible(), Options{Order: 1})
	q := d.FreestreamVector()
	bad := sparse.NewBCSRPattern(3, 4, [][]int32{{0}, {1}, {2}})
	if err := d.AssembleJacobian(q, bad); err == nil {
		t.Error("mismatched matrix accepted")
	}
	dn := newDisc(t, m, NewIncompressible(), Options{Order: 1, Layout: sparse.NonInterlaced})
	if err := dn.AssembleJacobian(q, dn.JacobianPattern()); err == nil {
		t.Error("noninterlaced assembly accepted")
	}
}

func BenchmarkResidualOrder1Sorted(b *testing.B) {
	m := testMesh(b, 16, 13, 10)
	d := newDisc(b, m, NewIncompressible(), Options{Order: 1, EdgeOrdering: "sorted"})
	q := d.FreestreamVector()
	r := make([]float64, d.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Residual(q, r)
	}
}

func BenchmarkResidualOrder1Colored(b *testing.B) {
	m := testMesh(b, 16, 13, 10)
	d := newDisc(b, m, NewIncompressible(), Options{Order: 1, EdgeOrdering: "colored"})
	q := d.FreestreamVector()
	r := make([]float64, d.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Residual(q, r)
	}
}

func TestNumFluxConservationProperty(t *testing.T) {
	// Conservation across a face: H(qL, qR, S) == -H(qR, qL, -S), so the
	// two adjacent control volumes exchange exactly opposite fluxes.
	for _, sys := range systems() {
		b := sys.B()
		f := func(seed uint8, sx, sy, sz int8) bool {
			n := mesh.Vec3{X: float64(sx) / 16, Y: float64(sy) / 16, Z: float64(sz) / 16}
			if n.X == 0 && n.Y == 0 && n.Z == 0 {
				n.X = 0.5
			}
			qL := perturbedState(sys, float64(seed))
			qR := perturbedState(sys, float64(seed)+2.5)
			h1 := make([]float64, b)
			h2 := make([]float64, b)
			scratch := make([]float64, b)
			NumFlux(sys, qL, qR, n, h1, scratch)
			NumFlux(sys, qR, qL, mesh.Vec3{X: -n.X, Y: -n.Y, Z: -n.Z}, h2, scratch)
			for c := 0; c < b; c++ {
				if math.Abs(h1[c]+h2[c]) > 1e-12*(1+math.Abs(h1[c])) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", sys.Name(), err)
		}
	}
}
