package euler

import (
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/sparse"
)

// Galerkin-type diffusion, per the paper's description of FUN3D
// ("second-order flux-limited characteristics-based convection schemes
// and Galerkin-type diffusion"): the P1 finite-element Laplacian on the
// tetrahedral mesh, applied to the momentum components as a laminar
// viscous term. For linear basis functions on a tet with volume V and
// inward area-scaled face normals N_i (opposite vertex i),
// ∇φ_i = N_i/(3V), so the stiffness coupling is
//
//	K_ij = ∫ ∇φ_i·∇φ_j dV = N_i·N_j / (9V).
//
// Row sums vanish (ΣN_i = 0), so the operator reduces to an edge loop:
// r_i += μ Σ_edges w_ij (q_j − q_i) with w_ij = ΣK_ij (negative for
// well-shaped tets). The solver's residual convention is
// V dq/dτ = −R(q), so R_visc = +K q makes the dynamics dissipative.

// buildDiffusionWeights computes the per-edge stiffness weights, aligned
// with d.edges (the discretization's iteration order).
func (d *Discretization) buildDiffusionWeights() error {
	m := d.M
	weights := make(map[mesh.Edge]float64, m.NumEdges())
	for _, t := range m.Tets {
		p := [4]mesh.Vec3{m.Coords[t[0]], m.Coords[t[1]], m.Coords[t[2]], m.Coords[t[3]]}
		vol := tetVolume(p)
		if vol < 0 {
			vol = -vol
		}
		// Inward area normals: N_i = -(outward normal of face opposite i).
		var n [4]mesh.Vec3
		for i := 0; i < 4; i++ {
			// Face opposite vertex i: the other three vertices.
			var f [3]mesh.Vec3
			k := 0
			for c := 0; c < 4; c++ {
				if c != i {
					f[k] = p[c]
					k++
				}
			}
			a := cross3(sub3(f[1], f[0]), sub3(f[2], f[0]))
			// Orient toward vertex i.
			if dot3(a, sub3(p[i], f[0])) < 0 {
				a = scale3(a, -1)
			}
			n[i] = scale3(a, 0.5)
		}
		inv := 1.0 / (9 * vol)
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				lo, hi := t[i], t[j]
				if lo > hi {
					lo, hi = hi, lo
				}
				// w_ij = K_ij: the edge form r_i += w_ij (q_j - q_i)
				// then equals (K q)_i by the zero-row-sum identity.
				weights[mesh.Edge{A: lo, B: hi}] += dot3(n[i], n[j]) * inv
			}
		}
	}
	d.diffW = make([]float64, len(d.edges))
	for ei, e := range d.edges {
		d.diffW[ei] = weights[mesh.Edge{A: e.a, B: e.b}]
	}
	return nil
}

// diffusiveComponents returns which state components receive the
// viscous term (the momentum components of either system).
func (d *Discretization) diffusiveComponents() []int {
	// Both systems store the three momentum-like components at indices
	// 1..3 (velocity for incompressible, momentum density for
	// compressible).
	return []int{1, 2, 3}
}

// addDiffusion accumulates the viscous residual μ Σ w_ij (q_j − q_i)
// for the diffusive components.
func (d *Discretization) addDiffusion(q, r []float64) {
	mu := d.Opts.Viscosity
	comps := d.diffusiveComponents()
	var qa, qb [5]float64
	b := d.Sys.B()
	var delta [5]float64
	for ei, e := range d.edges {
		w := mu * d.diffW[ei]
		if w == 0 {
			continue
		}
		d.gather(q, e.a, qa[:b])
		d.gather(q, e.b, qb[:b])
		for c := range delta[:b] {
			delta[c] = 0
		}
		for _, c := range comps {
			delta[c] = w * (qb[c] - qa[c])
		}
		// r_a += w (q_b - q_a); r_b += w (q_a - q_b).
		d.scatterAdd(r, e.a, delta[:b], +1)
		d.scatterAdd(r, e.b, delta[:b], -1)
	}
}

// addDiffusionJacobian adds the (linear, exact) viscous coupling to the
// assembled Jacobian: dr_a/dq_b += w I_momentum, dr_a/dq_a -= w I_m, etc.
// a has JacobianPattern's sparsity (AssembleJacobian checked it).
func (d *Discretization) addDiffusionJacobian(a *sparse.BCSR) {
	mu := d.Opts.Viscosity
	comps := d.diffusiveComponents()
	b := d.Sys.B()
	add := func(k int32, w float64) {
		blk := a.Block(int(k))
		for _, c := range comps {
			blk[c*b+c] += w
		}
	}
	for ei, e := range d.edges {
		w := mu * d.diffW[ei]
		if w == 0 {
			continue
		}
		// r_a += w(q_b - q_a): d/dq_b = +w, d/dq_a = -w.
		add(d.jac.ab[ei], w)
		add(d.jac.diag[e.a], -w)
		// r_b += w(q_a - q_b).
		add(d.jac.ba[ei], w)
		add(d.jac.diag[e.b], -w)
	}
}
