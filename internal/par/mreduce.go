package par

// Fused multi-vector kernels — this package's VecMDot/VecMAXPY. The
// GMRES orthogonalization step computes j+1 inner products of the new
// work vector w against the whole Krylov basis and then subtracts the
// j+1 projections from w; done one basis vector at a time (Dot + Axpy
// per vector) the kernels stream w 2(j+1) times per iteration and pay
// 2(j+1) pool barriers. MDot computes every product in ONE pass over w
// (one barrier), MAxpy applies every subtraction in one
// read-modify-write sweep of w (one barrier) — the fusion PETSc reaches
// for once the vector kernels are bandwidth-bound.
//
// Determinism contract: MDot computes each inner product through its
// own fixed Segments-shape index-ordered reduction — the partials, the
// per-element accumulation order within a segment, and the ascending
// combine order are all exactly Dot's — so out[i] is bitwise identical
// to Dot(p, x, vs[i]) at every worker count. MAxpy applies the vectors
// in ascending index order per element with one rounding per
// multiply-add step, exactly the sequence Axpy(p, alphas[0], vs[0], y);
// Axpy(p, alphas[1], vs[1], y); ... performs, so y is bitwise identical
// to the per-vector sweep at every worker count.

// MDot fills out[i] = x · vs[i] for every vector of vs in one pass over
// x, each product through the fixed-shape segmented reduction (bitwise
// identical to Dot at any worker count, nil pool included). out must
// hold at least len(vs) entries; every vector of vs must have x's
// length. On one worker (a nil pool or a 1-worker one) the partials
// are folded into out as they are produced and no scratch exists; a
// threaded pool's partial-sum scratch grows to the largest vs seen, and
// a caller that knows its largest batch reserves it once (ReserveMDot)
// so that no MDot allocates.
func MDot(p *Pool, x []float64, vs [][]float64, out []float64) {
	k := len(vs)
	if k == 0 {
		return
	}
	if p == nil || p.nw == 1 {
		mdotFold(x, vs, out)
		return
	}
	p.ReserveMDot(k)
	parts := p.mdotParts[:k*Segments]
	t := &p.mdotT
	t.x, t.vs, t.parts = x, vs, parts
	p.Run(t)
	t.x, t.vs, t.parts = nil, nil, nil
	for i := range vs {
		out[i] = combineSeg(parts[i*Segments:])
	}
}

// ReserveMDot sizes a threaded pool's partial-sum scratch for MDot
// batches of up to k vectors (a no-op on one worker, which needs none,
// or on a pool already that large).
func (p *Pool) ReserveMDot(k int) {
	if p != nil && p.nw > 1 && cap(p.mdotParts) < k*Segments {
		p.mdotParts = make([]float64, k*Segments)
	}
}

// MAxpy computes y += alphas[i]*vs[i] for every vector of vs in one
// read-modify-write sweep of y, striped elementwise across the workers.
// Per element the vectors are applied in ascending index order with one
// rounding per step — the exact arithmetic of the per-vector Axpy
// sequence — so y is bitwise identical to that sequence at every worker
// count. alphas must hold at least len(vs) coefficients; every vector
// of vs must have y's length.
func MAxpy(p *Pool, alphas []float64, vs [][]float64, y []float64) {
	if len(vs) == 0 {
		return
	}
	if p == nil || p.nw == 1 {
		maxpyRange(alphas, vs, y, 0, len(y))
		return
	}
	t := &p.maxpyT
	t.alphas, t.vs, t.y = alphas, vs, y
	p.Run(t)
	t.alphas, t.vs, t.y = nil, nil, nil
}

type mdotTask struct {
	x     []float64
	vs    [][]float64
	parts []float64 // len(vs)*Segments; parts[i*Segments+s] = segment s of x·vs[i]
}

func (t *mdotTask) RunShard(w, nw int) {
	mdotSegments(t.x, t.vs, w*Segments/nw, (w+1)*Segments/nw, t.parts)
}

// mdotSegments fills parts[i*Segments+s] for s in [s0,s1) with the
// per-segment partials of x·vs[i] for every vector, streaming each
// segment of x once across all vectors (four at a time). Segment
// bounds and per-element accumulation order are exactly dotSegments'.
func mdotSegments(x []float64, vs [][]float64, s0, s1 int, parts []float64) {
	n := len(x)
	for s := s0; s < s1; s++ {
		lo, hi := n*s/Segments, n*(s+1)/Segments
		xs := x[lo:hi]
		k := 0
		for ; k+4 <= len(vs); k += 4 {
			p0, p1, p2, p3 := mdotSeg4(xs, vs[k][lo:hi], vs[k+1][lo:hi], vs[k+2][lo:hi], vs[k+3][lo:hi])
			parts[(k+0)*Segments+s] = p0
			parts[(k+1)*Segments+s] = p1
			parts[(k+2)*Segments+s] = p2
			parts[(k+3)*Segments+s] = p3
		}
		for ; k < len(vs); k++ {
			parts[k*Segments+s] = mdotSeg1(xs, vs[k][lo:hi])
		}
	}
}

// mdotFold is MDot on one worker: it streams each segment of x once
// across all vectors (four at a time) and adds each vector's segment
// partial to out[i] as it is produced. The segments come in ascending
// order onto out[i] = 0, so the fold is combine's, bit for bit, and the
// partials need no scratch.
func mdotFold(x []float64, vs [][]float64, out []float64) {
	out = out[:len(vs)] // bce: ties len(out) to len(vs); the k index serves both unchecked
	clear(out)
	n := len(x)
	for s := 0; s < Segments; s++ {
		lo, hi := n*s/Segments, n*(s+1)/Segments
		xs := x[lo:hi]
		k := 0
		for ; k+4 <= len(vs); k += 4 {
			p0, p1, p2, p3 := mdotSeg4(xs, vs[k][lo:hi], vs[k+1][lo:hi], vs[k+2][lo:hi], vs[k+3][lo:hi])
			out[k] += p0
			out[k+1] += p1
			out[k+2] += p2
			out[k+3] += p3
		}
		for ; k < len(vs); k++ {
			out[k] += mdotSeg1(xs, vs[k][lo:hi])
		}
	}
}

// mdotSeg4 returns the four segment partials x·y0..x·y3, each
// accumulated independently in ascending element order (one rounding
// per multiply-add, exactly dotSegments' arithmetic per vector).
func mdotSeg4(x, y0, y1, y2, y3 []float64) (float64, float64, float64, float64) {
	y0 = y0[:len(x)] // bce: ties len(y0..y3) to len(x); one index serves all five streams unchecked
	y1 = y1[:len(x)]
	y2 = y2[:len(x)]
	y3 = y3[:len(x)]
	var s0, s1, s2, s3 float64
	for i := range x {
		v := x[i]
		s0 += v * y0[i]
		s1 += v * y1[i]
		s2 += v * y2[i]
		s3 += v * y3[i]
	}
	return s0, s1, s2, s3
}

// mdotSeg1 is the remainder kernel: one segment partial of x·y.
func mdotSeg1(x, y []float64) float64 {
	y = y[:len(x)] // bce: ties len(y) to len(x); the index serves both streams unchecked
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// combineSeg folds the first Segments partials in ascending segment
// order — the same fold as combine, over a slice-carved scratch row.
func combineSeg(parts []float64) float64 {
	parts = parts[:Segments] // bce: fixes the extent; the range is unchecked
	var s float64
	for _, v := range parts {
		s += v
	}
	return s
}

type maxpyTask struct {
	alphas []float64
	vs     [][]float64
	y      []float64
}

func (t *maxpyTask) RunShard(w, nw int) {
	n := len(t.y)
	maxpyRange(t.alphas, t.vs, t.y, n*w/nw, n*(w+1)/nw)
}

// maxpyRange applies y[lo:hi] += Σ alphas[k]*vs[k][lo:hi], vectors in
// ascending index order per element, four at a time.
func maxpyRange(alphas []float64, vs [][]float64, y []float64, lo, hi int) {
	k := 0
	for ; k+4 <= len(vs); k += 4 {
		maxpy4(alphas[k], alphas[k+1], alphas[k+2], alphas[k+3],
			vs[k][lo:hi], vs[k+1][lo:hi], vs[k+2][lo:hi], vs[k+3][lo:hi], y[lo:hi])
	}
	for ; k < len(vs); k++ {
		axpyRange(alphas[k], vs[k][lo:hi], y[lo:hi])
	}
}

// maxpy4 computes y += a0*x0 + a1*x1 + a2*x2 + a3*x3 with one load and
// one store of y per element; each += step rounds exactly as the
// per-vector axpyRange compound assignment does, in the same vector
// order, so the result is bitwise identical to four sequential Axpys.
func maxpy4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	x0 = x0[:len(y)] // bce: ties len(x0..x3) to len(y); one index serves all five streams unchecked
	x1 = x1[:len(y)]
	x2 = x2[:len(y)]
	x3 = x3[:len(y)]
	for i := range y {
		s := y[i]
		s += a0 * x0[i]
		s += a1 * x1[i]
		s += a2 * x2[i]
		s += a3 * x3[i]
		y[i] = s
	}
}
