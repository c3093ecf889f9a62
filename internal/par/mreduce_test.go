package par

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// basisFor builds k deterministic pseudo-random vectors of length n
// plus one work vector.
func basisFor(seed int64, k, n int) (x []float64, vs [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	vs = make([][]float64, k)
	for j := range vs {
		vs[j] = make([]float64, n)
		for i := range vs[j] {
			vs[j][i] = rng.NormFloat64()
		}
	}
	return x, vs
}

// TestMDotBitwiseIdenticalToDot is the determinism grid of the fused
// multi-dot: every out[i] must equal Dot(p, x, vs[i]) bit for bit on
// one worker (the nil pool and a 1-worker pool, which fold partials
// into out as they come) and at every threaded worker count, for every
// basis size mod 4 (the group-of-4 kernel's remainder lanes) and
// lengths on both sides of the segment count. x carries a −0 and one
// basis vector a NaN, so a fold that loses a sign or a NaN shows.
func TestMDotBitwiseIdenticalToDot(t *testing.T) {
	for _, n := range []int{0, 1, 5, 63, 64, 65, 1000, 4099, 12345} {
		for k := 0; k <= 9; k++ {
			x, vs := basisFor(int64(101*n+k), k, n)
			if n > 0 {
				x[n-1] = math.Copysign(0, -1)
			}
			if n > 0 && k > 2 {
				vs[2][n/2] = math.NaN()
			}
			want := make([]float64, k)
			for i, vi := range vs {
				want[i] = Dot(nil, x, vi)
			}
			got := make([]float64, k)
			check := func(label string, p *Pool) {
				for rep := 0; rep < 2; rep++ {
					for i := range got {
						got[i] = 1 // stale values the call must overwrite
					}
					MDot(p, x, vs, got)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s n=%d k=%d rep=%d: out[%d]=%x, want %x", label, n, k, rep, i, got[i], want[i])
						}
					}
				}
			}
			check("nil pool", nil)
			for _, nw := range []int{1, 2, 4, 8} {
				p := New(nw)
				check(fmt.Sprintf("nw=%d", nw), p)
				p.Close()
			}
		}
	}
}

// TestMAxpyBitwiseIdenticalToAxpySequence: the fused multi-axpy must
// reproduce the sequential per-vector Axpy sweep bitwise — same
// per-element rounding sequence — at every worker count and basis size.
func TestMAxpyBitwiseIdenticalToAxpySequence(t *testing.T) {
	for _, n := range []int{0, 1, 5, 63, 64, 65, 1000, 12345} {
		for _, k := range []int{1, 2, 3, 4, 5, 8, 9} {
			y0, vs := basisFor(int64(311*n+k), k, n)
			alphas := make([]float64, k)
			rng := rand.New(rand.NewSource(int64(k + n)))
			for i := range alphas {
				alphas[i] = rng.NormFloat64()
			}
			want := append([]float64(nil), y0...)
			for i, vi := range vs {
				Axpy(nil, alphas[i], vi, want)
			}
			check := func(label string, p *Pool) {
				y := append([]float64(nil), y0...)
				MAxpy(p, alphas, vs, y)
				for i := range want {
					if y[i] != want[i] {
						t.Fatalf("%s n=%d k=%d: y[%d]=%x, want %x", label, n, k, i, y[i], want[i])
					}
				}
			}
			check("nil", nil)
			for _, nw := range []int{1, 2, 4, 8} {
				p := New(nw)
				check("pooled", p)
				p.Close()
			}
		}
	}
}

// TestMDotEmptyBasis: a zero-length basis is a no-op for both kernels.
func TestMDotEmptyBasis(t *testing.T) {
	p := New(2)
	defer p.Close()
	x := []float64{1, 2, 3}
	MDot(p, x, nil, nil)
	y := append([]float64(nil), x...)
	MAxpy(p, nil, nil, y)
	for i := range y {
		if y[i] != x[i] {
			t.Fatal("MAxpy with empty basis perturbed y")
		}
	}
}

// TestMDotScratchGrowsOnce: the pool's partial scratch follows the
// largest basis seen and is reused afterwards — after one warm call at
// the maximum width, the steady state allocates nothing for any width.
func TestMDotScratchGrowsOnce(t *testing.T) {
	p := New(4)
	defer p.Close()
	x, vs := basisFor(5, 9, 2048)
	out := make([]float64, 9)
	MDot(p, x, vs, out) // grows scratch to 9*Segments
	for _, k := range []int{1, 4, 9} {
		if avg := testing.AllocsPerRun(50, func() { MDot(p, x, vs[:k], out[:k]) }); avg > 0 {
			t.Fatalf("warm MDot k=%d allocates %.1f objects per call", k, avg)
		}
	}
}

// TestReserveMDotSizesScratchOnce: a caller that knows its largest batch
// (GMRES: Restart + 2) reserves the scratch up front, and then no MDot —
// not the first, not a wider one later — allocates: within a solve the
// batches grow by one vector per iteration, which used to reallocate the
// scratch at every new width.
func TestReserveMDotSizesScratchOnce(t *testing.T) {
	p := New(2)
	defer p.Close()
	x, vs := basisFor(7, 12, 1024)
	out := make([]float64, 12)
	p.ReserveMDot(12)
	for k := 1; k <= 12; k++ {
		if avg := testing.AllocsPerRun(1, func() { MDot(p, x, vs[:k], out[:k]) }); avg > 0 {
			t.Fatalf("MDot k=%d after ReserveMDot(12) allocates %.0f objects", k, avg)
		}
	}
	var nilPool *Pool
	nilPool.ReserveMDot(12) // a nil pool has no scratch: a no-op
	one := New(1)
	defer one.Close()
	one.ReserveMDot(12)
	MDot(one, x, vs, out)
	if one.mdotParts != nil {
		t.Fatalf("a 1-worker pool grew %d partials of scratch; its MDot folds without any", len(one.mdotParts))
	}
}

// TestMReduceSteadyStateAllocs pins the zero-allocation contract of
// both fused kernels on the nil pool and on a warmed threaded pool.
func TestMReduceSteadyStateAllocs(t *testing.T) {
	p := New(4)
	defer p.Close()
	x, vs := basisFor(17, 8, 4096)
	alphas := make([]float64, 8)
	for i := range alphas {
		alphas[i] = 1e-12 * float64(i+1)
	}
	out := make([]float64, 8)
	MDot(p, x, vs, out) // warm the scratch
	var sink float64
	for _, pool := range []*Pool{nil, p} {
		if avg := testing.AllocsPerRun(100, func() { MDot(pool, x, vs, out); sink += out[0] }); avg > 0 {
			t.Fatalf("MDot on %d workers allocates %.1f objects per call", pool.Workers(), avg)
		}
		if avg := testing.AllocsPerRun(100, func() { MAxpy(pool, alphas, vs, x) }); avg > 0 {
			t.Fatalf("MAxpy on %d workers allocates %.1f objects per call", pool.Workers(), avg)
		}
	}
	if math.IsNaN(sink) {
		t.Fatal("unreachable")
	}
}
