package euler

import (
	"fmt"
	"math"
)

// Second-order spatial accuracy: unstructured MUSCL — weighted
// least-squares vertex gradients (exact for linear fields, the approach
// of unstructured codes like FUN3D), optional Barth-Jespersen limiting,
// and linear extrapolation of the two states to the edge midpoint.

// buildLSQ precomputes the inverse normal matrices of the weighted
// least-squares gradient problem: for vertex v with edge vectors d_j and
// weights w_j = 1/|d_j|², M_v = Σ w_j d_j d_jᵀ, stored as Minv (row-major
// 3×3 per vertex).
func (d *Discretization) buildLSQ() error {
	nv := d.M.NumVertices()
	d.lsqInv = make([]float64, nv*9)
	for v := 0; v < nv; v++ {
		var m [9]float64
		xv := d.M.Coords[v]
		for _, w := range d.M.Neighbors(v) {
			dx := sub3(d.M.Coords[w], xv)
			wt := 1.0 / dot3(dx, dx)
			c := [3]float64{dx.X, dx.Y, dx.Z}
			for r := 0; r < 3; r++ {
				for s := 0; s < 3; s++ {
					m[r*3+s] += wt * c[r] * c[s]
				}
			}
		}
		inv, ok := invert3(m)
		if !ok {
			return fmt.Errorf("euler: vertex %d has degenerate LSQ stencil", v)
		}
		copy(d.lsqInv[v*9:v*9+9], inv[:])
	}
	return nil
}

// invert3 inverts a row-major 3×3 matrix.
func invert3(m [9]float64) ([9]float64, bool) {
	a, b, c := m[0], m[1], m[2]
	e, f, g := m[3], m[4], m[5]
	h, i, j := m[6], m[7], m[8]
	det := a*(f*j-g*i) - b*(e*j-g*h) + c*(e*i-f*h)
	if math.Abs(det) < 1e-300 {
		return [9]float64{}, false
	}
	inv := [9]float64{
		f*j - g*i, c*i - b*j, b*g - c*f,
		g*h - e*j, a*j - c*h, c*e - a*g,
		e*i - f*h, b*h - a*i, a*f - b*e,
	}
	for k := range inv {
		inv[k] /= det
	}
	return inv, true
}

// computeGradients fills d.grad with weighted least-squares gradients of
// every component.
func (d *Discretization) computeGradients(q []float64) {
	b := d.Sys.B()
	nv := d.M.NumVertices()
	var qv, qw [5]float64
	rhs := make([]float64, b*3)
	for v := 0; v < nv; v++ {
		d.gather(q, int32(v), qv[:b])
		for i := range rhs {
			rhs[i] = 0
		}
		xv := d.M.Coords[v]
		for _, w := range d.M.Neighbors(v) {
			dx := sub3(d.M.Coords[w], xv)
			wt := 1.0 / dot3(dx, dx)
			d.gather(q, w, qw[:b])
			for c := 0; c < b; c++ {
				dq := wt * (qw[c] - qv[c])
				rhs[c*3+0] += dq * dx.X
				rhs[c*3+1] += dq * dx.Y
				rhs[c*3+2] += dq * dx.Z
			}
		}
		inv := d.lsqInv[v*9 : v*9+9]
		g := d.grad[v*b*3 : (v+1)*b*3]
		for c := 0; c < b; c++ {
			rx, ry, rz := rhs[c*3], rhs[c*3+1], rhs[c*3+2]
			g[c*3+0] = inv[0]*rx + inv[1]*ry + inv[2]*rz
			g[c*3+1] = inv[3]*rx + inv[4]*ry + inv[5]*rz
			g[c*3+2] = inv[6]*rx + inv[7]*ry + inv[8]*rz
		}
	}
}

// computeLimiters fills d.alpha with Barth-Jespersen limiter factors in
// [0, 1] per vertex and component, so reconstructed edge-midpoint values
// stay within the min/max of the vertex's neighborhood.
func (d *Discretization) computeLimiters(q []float64) {
	b := d.Sys.B()
	nv := d.M.NumVertices()
	qmin := make([]float64, nv*b)
	qmax := make([]float64, nv*b)
	var qv [5]float64
	for v := int32(0); v < int32(nv); v++ {
		d.gather(q, v, qv[:b])
		for c := 0; c < b; c++ {
			qmin[int(v)*b+c] = qv[c]
			qmax[int(v)*b+c] = qv[c]
		}
	}
	var qa, qb [5]float64
	for _, e := range d.edges {
		d.gather(q, e.a, qa[:b])
		d.gather(q, e.b, qb[:b])
		for c := 0; c < b; c++ {
			ia, ib := int(e.a)*b+c, int(e.b)*b+c
			if qb[c] < qmin[ia] {
				qmin[ia] = qb[c]
			}
			if qb[c] > qmax[ia] {
				qmax[ia] = qb[c]
			}
			if qa[c] < qmin[ib] {
				qmin[ib] = qa[c]
			}
			if qa[c] > qmax[ib] {
				qmax[ib] = qa[c]
			}
		}
	}
	for i := range d.alpha {
		d.alpha[i] = 1
	}
	limit := func(v int32, qv []float64, delta float64, c int) {
		i := int(v)*b + c
		var bound float64
		switch {
		case delta > 1e-14:
			bound = (qmax[i] - qv[c]) / delta
		case delta < -1e-14:
			bound = (qmin[i] - qv[c]) / delta
		default:
			return
		}
		if bound < d.alpha[i] {
			if bound < 0 {
				bound = 0
			}
			d.alpha[i] = bound
		}
	}
	for _, e := range d.edges {
		d.gather(q, e.a, qa[:b])
		d.gather(q, e.b, qb[:b])
		xm := scale3(add3(d.M.Coords[e.a], d.M.Coords[e.b]), 0.5)
		da := sub3(xm, d.M.Coords[e.a])
		db := sub3(xm, d.M.Coords[e.b])
		ga := d.grad[int(e.a)*b*3 : (int(e.a)+1)*b*3]
		gb := d.grad[int(e.b)*b*3 : (int(e.b)+1)*b*3]
		for c := 0; c < b; c++ {
			limit(e.a, qa[:b], ga[c*3]*da.X+ga[c*3+1]*da.Y+ga[c*3+2]*da.Z, c)
			limit(e.b, qb[:b], gb[c*3]*db.X+gb[c*3+1]*db.Y+gb[c*3+2]*db.Z, c)
		}
	}
}

// reconstructedEdges is the second-order convective sweep: the
// endpoint states reconstructed to the edge midpoint, then the same
// numerical flux through the System interface — the generic sweep the
// first-order kernels are written out from.
func (d *Discretization) reconstructedEdges(q, r []float64) {
	b := d.Sys.B()
	ws := d.getWS()
	qa, qb, ql, qr := ws.qa[:b], ws.qb[:b], ws.ql[:b], ws.qr[:b]
	flux, scratch := ws.flux[:b], ws.scratch[:b]
	for _, e := range d.edges {
		d.gather(q, e.a, qa)
		d.gather(q, e.b, qb)
		d.reconstruct(e, qa, qb, ql, qr)
		NumFlux(d.Sys, ql, qr, e.n, flux, scratch)
		d.scatterAdd(r, e.a, flux, +1)
		d.scatterAdd(r, e.b, flux, -1)
	}
	d.putWS(ws)
}

// reconstruct extrapolates the endpoint states to the edge midpoint.
func (d *Discretization) reconstruct(e edgeData, qa, qb, ql, qr []float64) {
	b := d.Sys.B()
	xm := scale3(add3(d.M.Coords[e.a], d.M.Coords[e.b]), 0.5)
	da := sub3(xm, d.M.Coords[e.a])
	db := sub3(xm, d.M.Coords[e.b])
	ga := d.grad[int(e.a)*b*3 : (int(e.a)+1)*b*3]
	gb := d.grad[int(e.b)*b*3 : (int(e.b)+1)*b*3]
	for c := 0; c < b; c++ {
		aa, ab := 1.0, 1.0
		if d.Opts.Limit {
			aa = d.alpha[int(e.a)*b+c]
			ab = d.alpha[int(e.b)*b+c]
		}
		ql[c] = qa[c] + aa*(ga[c*3]*da.X+ga[c*3+1]*da.Y+ga[c*3+2]*da.Z)
		qr[c] = qb[c] + ab*(gb[c*3]*db.X+gb[c*3+1]*db.Y+gb[c*3+2]*db.Z)
	}
}
