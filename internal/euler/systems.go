package euler

import (
	"math"

	"petscfun3d/internal/mesh"
)

// System abstracts the two flow models over which the discretization,
// Jacobian assembly, and solver layers are generic.
type System interface {
	// Name identifies the system ("incompressible"/"compressible").
	Name() string
	// B returns the number of unknowns per mesh point (4 or 5).
	B() int
	// PhysFlux evaluates the physical flux through directed area S,
	// F(q)·S, into out (length B).
	PhysFlux(q []float64, s mesh.Vec3, out []float64)
	// PhysJacobian evaluates d(F(q)·S)/dq into j, column-major B×B as
	// sparse.BCSR stores a block: d(F·S)_r/dq_c at j[c*B+r].
	PhysJacobian(q []float64, s mesh.Vec3, j []float64)
	// SpectralRadius returns the largest characteristic speed through S
	// (scaled by |S|), used for upwind dissipation and timestep limits.
	SpectralRadius(q []float64, s mesh.Vec3) float64
	// Freestream returns the farfield reference state.
	Freestream() []float64
}

// Incompressible is the incompressible Euler system in Chorin's
// artificial-compressibility form: unknowns (p, u, v, w), with the
// continuity equation ∂p/∂τ + β ∇·u = 0. Four unknowns per vertex —
// 90,708 DOFs on the paper's 22,677-vertex mesh.
type Incompressible struct {
	// Beta is the artificial compressibility parameter (O(1)–O(10)).
	Beta float64
	// U0 is the inflow/freestream velocity magnitude along +x.
	U0 float64
}

// NewIncompressible returns the system with customary parameters.
func NewIncompressible() *Incompressible { return &Incompressible{Beta: 4, U0: 1} }

// Name implements System.
func (s *Incompressible) Name() string { return "incompressible" }

// B implements System.
func (s *Incompressible) B() int { return 4 }

// Freestream implements System.
func (s *Incompressible) Freestream() []float64 { return []float64{0, s.U0, 0, 0} }

// PhysFlux implements System.
func (s *Incompressible) PhysFlux(q []float64, n mesh.Vec3, out []float64) {
	p, u, v, w := q[0], q[1], q[2], q[3]
	theta := u*n.X + v*n.Y + w*n.Z
	out[0] = s.Beta * theta
	out[1] = u*theta + p*n.X
	out[2] = v*theta + p*n.Y
	out[3] = w*theta + p*n.Z
}

// PhysJacobian implements System.
func (s *Incompressible) PhysJacobian(q []float64, n mesh.Vec3, j []float64) {
	u, v, w := q[1], q[2], q[3]
	theta := u*n.X + v*n.Y + w*n.Z
	// Column 0: d/dp (rows continuity, x-, y-, z-momentum).
	j[0], j[1], j[2], j[3] = 0, n.X, n.Y, n.Z
	// Column 1: d/du.
	j[4], j[5], j[6], j[7] = s.Beta*n.X, theta+u*n.X, v*n.X, w*n.X
	// Column 2: d/dv.
	j[8], j[9], j[10], j[11] = s.Beta*n.Y, u*n.Y, theta+v*n.Y, w*n.Y
	// Column 3: d/dw.
	j[12], j[13], j[14], j[15] = s.Beta*n.Z, u*n.Z, v*n.Z, theta+w*n.Z
}

// SpectralRadius implements System: |θ| + sqrt(θ² + β|S|²), the largest
// eigenvalue of the artificial-compressibility flux Jacobian.
func (s *Incompressible) SpectralRadius(q []float64, n mesh.Vec3) float64 {
	theta := q[1]*n.X + q[2]*n.Y + q[3]*n.Z
	s2 := n.X*n.X + n.Y*n.Y + n.Z*n.Z
	return math.Abs(theta) + math.Sqrt(theta*theta+s.Beta*s2)
}

// Compressible is the compressible Euler system with conservative
// unknowns (ρ, ρu, ρv, ρw, E). Five unknowns per vertex — 113,385 DOFs
// on the paper's 22,677-vertex mesh.
type Compressible struct {
	// Gamma is the ratio of specific heats.
	Gamma float64
	// Mach is the freestream Mach number (flow along +x).
	Mach float64
}

// NewCompressible returns the system with air's γ and a transonic-free
// Mach 0.5 freestream (the paper's incompressible-regime Euler study
// avoids shocks; a smooth subsonic flow matches that setting).
func NewCompressible() *Compressible { return &Compressible{Gamma: 1.4, Mach: 0.5} }

// Name implements System.
func (s *Compressible) Name() string { return "compressible" }

// B implements System.
func (s *Compressible) B() int { return 5 }

// Freestream implements System: ρ=1, p chosen so the sound speed is 1,
// velocity Mach along +x.
func (s *Compressible) Freestream() []float64 {
	rho := 1.0
	p := 1.0 / s.Gamma // c = sqrt(γp/ρ) = 1
	u := s.Mach
	e := p/(s.Gamma-1) + 0.5*rho*u*u
	return []float64{rho, rho * u, 0, 0, e}
}

// Pressure returns the thermodynamic pressure of state q.
func (s *Compressible) Pressure(q []float64) float64 {
	rho := q[0]
	ke := 0.5 * (q[1]*q[1] + q[2]*q[2] + q[3]*q[3]) / rho
	return (s.Gamma - 1) * (q[4] - ke)
}

// PhysFlux implements System.
func (s *Compressible) PhysFlux(q []float64, n mesh.Vec3, out []float64) {
	rho := q[0]
	u, v, w := q[1]/rho, q[2]/rho, q[3]/rho
	p := s.Pressure(q)
	vn := u*n.X + v*n.Y + w*n.Z
	out[0] = rho * vn
	out[1] = q[1]*vn + p*n.X
	out[2] = q[2]*vn + p*n.Y
	out[3] = q[3]*vn + p*n.Z
	out[4] = (q[4] + p) * vn
}

// PhysJacobian implements System (the standard analytical Euler flux
// Jacobian for an unnormalized direction vector).
func (s *Compressible) PhysJacobian(q []float64, n mesh.Vec3, j []float64) {
	g1 := s.Gamma - 1
	rho := q[0]
	u, v, w := q[1]/rho, q[2]/rho, q[3]/rho
	vn := u*n.X + v*n.Y + w*n.Z
	phi := 0.5 * g1 * (u*u + v*v + w*w)
	p := s.Pressure(q)
	h := (q[4] + p) / rho // total enthalpy
	// Column 0: d/dρ.
	j[0] = 0
	j[1] = phi*n.X - u*vn
	j[2] = phi*n.Y - v*vn
	j[3] = phi*n.Z - w*vn
	j[4] = (phi - h) * vn
	// Column 1: d/d(ρu).
	j[5] = n.X
	j[6] = vn + (2-s.Gamma)*u*n.X
	j[7] = v*n.X - g1*u*n.Y
	j[8] = w*n.X - g1*u*n.Z
	j[9] = h*n.X - g1*u*vn
	// Column 2: d/d(ρv).
	j[10] = n.Y
	j[11] = u*n.Y - g1*v*n.X
	j[12] = vn + (2-s.Gamma)*v*n.Y
	j[13] = w*n.Y - g1*v*n.Z
	j[14] = h*n.Y - g1*v*vn
	// Column 3: d/d(ρw).
	j[15] = n.Z
	j[16] = u*n.Z - g1*w*n.X
	j[17] = v*n.Z - g1*w*n.Y
	j[18] = vn + (2-s.Gamma)*w*n.Z
	j[19] = h*n.Z - g1*w*vn
	// Column 4: d/dE.
	j[20] = 0
	j[21] = g1 * n.X
	j[22] = g1 * n.Y
	j[23] = g1 * n.Z
	j[24] = s.Gamma * vn
}

// SpectralRadius implements System: |u·S| + c|S|.
func (s *Compressible) SpectralRadius(q []float64, n mesh.Vec3) float64 {
	rho := q[0]
	vn := (q[1]*n.X + q[2]*n.Y + q[3]*n.Z) / rho
	p := s.Pressure(q)
	if p < 1e-12 {
		p = 1e-12
	}
	c := math.Sqrt(s.Gamma * p / rho)
	return math.Abs(vn) + c*norm3(n)
}

// NumFlux evaluates the local Lax-Friedrichs (Rusanov) numerical flux
// between states qL and qR through directed area S into out:
// H = ½(F(qL)+F(qR))·S − ½ λ (qR − qL), with λ the larger spectral
// radius. First-order upwinding; the second-order scheme reconstructs
// qL/qR before calling it.
func NumFlux(sys System, qL, qR []float64, n mesh.Vec3, out, scratch []float64) {
	b := sys.B()
	sys.PhysFlux(qL, n, out)
	sys.PhysFlux(qR, n, scratch)
	lam := sys.SpectralRadius(qL, n)
	if r := sys.SpectralRadius(qR, n); r > lam {
		lam = r
	}
	for c := 0; c < b; c++ {
		out[c] = 0.5*(out[c]+scratch[c]) - 0.5*lam*(qR[c]-qL[c])
	}
}
