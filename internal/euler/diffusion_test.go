package euler

import (
	"math"
	"testing"

	"petscfun3d/internal/sparse"
)

func TestDiffusionZeroForConstantField(t *testing.T) {
	// The Laplacian of a constant field is zero everywhere (the viscous
	// term must not disturb uniform flow).
	m := testMesh(t, 7, 6, 5)
	sys := NewIncompressible()
	dv := newDisc(t, m, sys, Options{Order: 1, Viscosity: 0.1})
	d0 := newDisc(t, m, sys, Options{Order: 1})
	q := dv.FreestreamVector()
	rv := make([]float64, dv.N())
	r0 := make([]float64, d0.N())
	dv.Residual(q, rv)
	d0.Residual(q, r0)
	for i := range rv {
		if math.Abs(rv[i]-r0[i]) > 1e-12 {
			t.Fatalf("viscous term nonzero on constant field at %d: %g", i, rv[i]-r0[i])
		}
	}
}

func TestDiffusionZeroForLinearFieldInterior(t *testing.T) {
	// The P1 Laplacian annihilates linear fields at interior vertices
	// (exactness of linear finite elements).
	m := testMesh(t, 7, 6, 5)
	sys := NewIncompressible()
	b := sys.B()
	dv := newDisc(t, m, sys, Options{Order: 1, Viscosity: 1.0})
	d0 := newDisc(t, m, sys, Options{Order: 1})
	q := make([]float64, dv.N())
	for v := 0; v < m.NumVertices(); v++ {
		x := m.Coords[v]
		for c := 0; c < b; c++ {
			q[v*b+c] = 0.3 + 1.7*x.X - 0.4*x.Y + 0.9*x.Z
		}
	}
	rv := make([]float64, dv.N())
	r0 := make([]float64, d0.N())
	dv.Residual(q, rv)
	d0.Residual(q, r0)
	for v := 0; v < m.NumVertices(); v++ {
		if m.Boundary[v] {
			continue
		}
		for c := 1; c <= 3; c++ {
			if diff := math.Abs(rv[v*b+c] - r0[v*b+c]); diff > 1e-9 {
				t.Fatalf("interior vertex %d comp %d: viscous term %g on linear field", v, c, diff)
			}
		}
	}
}

func TestDiffusionIsDissipative(t *testing.T) {
	// With the solver convention V dq/dτ = −R(q), kinetic energy decays
	// when u·R_visc(u) >= 0 (R_visc = K u with K positive semidefinite).
	m := testMesh(t, 6, 5, 4)
	sys := NewIncompressible()
	b := sys.B()
	dv := newDisc(t, m, sys, Options{Order: 1, Viscosity: 0.5})
	d0 := newDisc(t, m, sys, Options{Order: 1})
	q := smoothState(dv)
	rv := make([]float64, dv.N())
	r0 := make([]float64, d0.N())
	dv.Residual(q, rv)
	d0.Residual(q, r0)
	var dot float64
	for v := 0; v < m.NumVertices(); v++ {
		for c := 1; c <= 3; c++ {
			i := v*b + c
			dot += q[i] * (rv[i] - r0[i])
		}
	}
	if dot < -1e-10 {
		t.Errorf("viscous dynamics not dissipative: u·R_visc = %g < 0", dot)
	}
	if dot == 0 {
		t.Error("viscous operator had no effect on a smooth state")
	}
}

func TestViscousJacobianMatchesFiniteDifference(t *testing.T) {
	// The viscous term is linear, so the Jacobian with viscosity must
	// remain FD-consistent (interior rows, uniform state — same setup as
	// the inviscid Jacobian test).
	m := testMesh(t, 5, 4, 4)
	sys := NewIncompressible()
	d := newDisc(t, m, sys, Options{Order: 1, Viscosity: 0.2})
	q := d.FreestreamVector()
	for i := range q {
		q[i] = q[i]*0.95 + 0.02
	}
	a := d.JacobianPattern()
	if err := d.AssembleJacobian(q, a); err != nil {
		t.Fatal(err)
	}
	n := d.N()
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Cos(float64(i) * 0.41)
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
	b := sys.B()
	worstInterior := 0.0
	for i := 0; i < n; i++ {
		if m.Boundary[i/b] {
			continue
		}
		fd := (r1[i] - r0[i]) / h
		if diff := math.Abs(fd - aw[i]); diff > worstInterior {
			worstInterior = diff
		}
	}
	if worstInterior > 1e-4 {
		t.Errorf("viscous Jacobian vs FD worst interior diff %g", worstInterior)
	}
}

func TestViscositySmoothsSolution(t *testing.T) {
	// A viscous steady state has smaller velocity extremes than the
	// inviscid one (diffusion damps gradients). Indirect but cheap:
	// compare residuals of the inviscid steady state under viscosity.
	m := testMesh(t, 6, 5, 4)
	sys := NewIncompressible()
	dv := newDisc(t, m, sys, Options{Order: 1, Viscosity: 0.05})
	q := smoothState(dv)
	rv := make([]float64, dv.N())
	dv.Residual(q, rv)
	if sparse.Norm2(rv) == 0 {
		t.Error("viscous residual identically zero on nonuniform state")
	}
}

func TestNegativeViscosityRejected(t *testing.T) {
	m := testMesh(t, 4, 3, 3)
	for _, mu := range []float64{-1, math.NaN()} {
		if _, err := NewDiscretization(m, nil, NewIncompressible(), Options{Order: 1, Viscosity: mu}); err == nil {
			t.Errorf("viscosity %g accepted", mu)
		}
	}
}
