package par

// Segments is the fixed shape of the deterministic reductions: a vector
// is always cut into exactly Segments index ranges (depending only on
// its length, never on the worker count), each range is summed in
// ascending element order, and the per-segment partials are combined in
// ascending segment order. Workers own contiguous runs of segments, so
// any worker count — including one — produces the exact same partials
// and therefore the exact same bitwise result. This is the
// run-to-run-identical dot product the GMRES iteration decisions hang
// off.
const Segments = 64

// Dot returns the inner product of x and y via the fixed-shape
// segmented reduction. The result is identical for every worker count
// (a nil pool included), and identical across repeated runs.
func Dot(p *Pool, x, y []float64) float64 {
	if p == nil || p.nw == 1 {
		var parts [Segments]float64
		dotSegments(x, y, 0, Segments, &parts)
		return combine(&parts)
	}
	t := &p.dotT
	t.x, t.y, t.parts = x, y, &p.dotParts
	p.Run(t)
	t.x, t.y = nil, nil
	return combine(&p.dotParts)
}

// Axpy computes y += a*x, striped elementwise across the workers. Each
// element is written exactly once by its owning worker, so the result
// is bitwise identical to the sequential sweep at any worker count.
func Axpy(p *Pool, a float64, x, y []float64) {
	if p == nil || p.nw == 1 {
		axpyRange(a, x, y)
		return
	}
	t := &p.axpyT
	t.a, t.x, t.y = a, x, y
	p.Run(t)
	t.x, t.y = nil, nil
}

type dotTask struct {
	x, y  []float64
	parts *[Segments]float64
}

func (t *dotTask) RunShard(w, nw int) {
	dotSegments(t.x, t.y, w*Segments/nw, (w+1)*Segments/nw, t.parts)
}

// dotSegments fills parts[s0:s1] with the per-segment partial sums of
// x·y. Segment s covers elements [n*s/Segments, n*(s+1)/Segments) — a
// function of n alone — and is accumulated in ascending element order.
func dotSegments(x, y []float64, s0, s1 int, parts *[Segments]float64) {
	n := len(x)
	for s := s0; s < s1; s++ {
		xs := x[n*s/Segments : n*(s+1)/Segments]
		ys := y[n*s/Segments : n*(s+1)/Segments]
		ys = ys[:len(xs)] // bce: ties len(ys) to len(xs); the range index serves both streams unchecked
		var sum float64
		for i, v := range xs {
			sum += v * ys[i]
		}
		parts[s] = sum
	}
}

// combine folds the partials in ascending segment order — the one fixed
// combination order every worker count shares.
func combine(parts *[Segments]float64) float64 {
	var s float64
	for _, v := range parts {
		s += v
	}
	return s
}

type axpyTask struct {
	a    float64
	x, y []float64
}

func (t *axpyTask) RunShard(w, nw int) {
	n := len(t.x)
	axpyRange(t.a, t.x[n*w/nw:n*(w+1)/nw], t.y[n*w/nw:n*(w+1)/nw])
}

func axpyRange(a float64, x, y []float64) {
	y = y[:len(x)] // bce: ties len(y) to len(x); the range index serves both streams unchecked
	for i, v := range x {
		y[i] += a * v
	}
}
