package par

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type countTask struct {
	hits  []int32
	total atomic.Int32
}

func (t *countTask) RunShard(w, nw int) {
	t.hits[w]++
	t.total.Add(1)
}

func TestPoolRunsEveryWorkerOnce(t *testing.T) {
	for _, nw := range []int{1, 2, 4, 8} {
		p := New(nw)
		task := &countTask{hits: make([]int32, nw)}
		for rep := 0; rep < 3; rep++ {
			p.Run(task)
		}
		p.Close()
		if got := task.total.Load(); got != int32(3*nw) {
			t.Fatalf("nw=%d: %d shard runs, want %d", nw, got, 3*nw)
		}
		for w, h := range task.hits {
			if h != 3 {
				t.Fatalf("nw=%d: worker %d ran %d times, want 3", nw, w, h)
			}
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool has %d workers", p.Workers())
	}
	task := &countTask{hits: make([]int32, 1)}
	p.Run(task)
	p.Close()
	if task.hits[0] != 1 {
		t.Fatalf("nil pool ran the shard %d times", task.hits[0])
	}
}

func TestDotBitwiseIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 63, 64, 65, 1000, 12345} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		want := Dot(nil, x, y)
		wantN := Norm2(nil, x)
		for _, nw := range []int{1, 2, 4, 8} {
			p := New(nw)
			for rep := 0; rep < 3; rep++ {
				if got := Dot(p, x, y); got != want {
					t.Fatalf("n=%d nw=%d rep=%d: Dot=%x, want %x", n, nw, rep, got, want)
				}
				if got := Norm2(p, x); got != wantN {
					t.Fatalf("n=%d nw=%d rep=%d: Norm2=%x, want %x", n, nw, rep, got, wantN)
				}
			}
			p.Close()
		}
	}
}

func TestAxpyBitwiseIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 4321
	x := make([]float64, n)
	y0 := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y0[i] = rng.NormFloat64()
	}
	want := append([]float64(nil), y0...)
	Axpy(nil, 0.37, x, want)
	for _, nw := range []int{1, 2, 4, 8} {
		p := New(nw)
		y := append([]float64(nil), y0...)
		Axpy(p, 0.37, x, y)
		p.Close()
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("nw=%d: y[%d]=%x, want %x", nw, i, y[i], want[i])
			}
		}
	}
}

func TestStripesBalancedAndComplete(t *testing.T) {
	// Weighted rows: prefix like a RowPtr with skewed row sizes.
	prefix := []int32{0}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		w := int32(1 + rng.Intn(20))
		if i < 5 {
			w = 200 // a few heavy rows up front
		}
		prefix = append(prefix, prefix[len(prefix)-1]+w)
	}
	items := len(prefix) - 1
	total := prefix[items]
	for _, nw := range []int{1, 2, 3, 4, 8} {
		bounds := make([]int32, nw+1)
		Stripes(prefix, nw, bounds)
		if bounds[0] != 0 || bounds[nw] != int32(items) {
			t.Fatalf("nw=%d: bounds do not cover the items: %v", nw, bounds)
		}
		for w := 0; w < nw; w++ {
			if bounds[w] > bounds[w+1] {
				t.Fatalf("nw=%d: non-monotone bounds %v", nw, bounds)
			}
		}
		// Each stripe's weight stays within one max item weight of the
		// ideal share (the best a contiguous prefix partition can do).
		var maxItem int32
		for i := 0; i < items; i++ {
			if w := prefix[i+1] - prefix[i]; w > maxItem {
				maxItem = w
			}
		}
		ideal := float64(total) / float64(nw)
		for w := 0; w < nw; w++ {
			got := float64(prefix[bounds[w+1]] - prefix[bounds[w]])
			if got > ideal+float64(maxItem) {
				t.Fatalf("nw=%d stripe %d carries %.0f nnz, ideal %.0f, max item %d", nw, w, got, ideal, maxItem)
			}
		}
	}
}

// TestStripesFewHeavyItems: with a handful of heavy items — subdomains,
// not rows — each boundary lands on the item boundary nearest its target,
// not on the first one past it.
func TestStripesFewHeavyItems(t *testing.T) {
	for _, c := range []struct {
		prefix []int32
		nw     int
		want   []int32
	}{
		{[]int32{0, 72492, 149678, 227509, 299965}, 2, []int32{0, 2, 4}},
		{[]int32{0, 10, 20, 30, 40}, 4, []int32{0, 1, 2, 3, 4}},
		{[]int32{0, 10, 11, 12, 13}, 2, []int32{0, 1, 4}},
		{[]int32{0, 1, 2, 3, 13}, 2, []int32{0, 3, 4}},
		{[]int32{5, 6, 7, 8, 9, 10, 11, 12}, 3, []int32{0, 2, 4, 7}},
	} {
		bounds := make([]int32, c.nw+1)
		Stripes(c.prefix, c.nw, bounds)
		for i := range c.want {
			if bounds[i] != c.want[i] {
				t.Fatalf("Stripes(%v, %d) = %v, want %v", c.prefix, c.nw, bounds, c.want)
			}
		}
	}
}

type panicTask struct{ victim int }

func (t *panicTask) RunShard(w, nw int) {
	if w == t.victim {
		panic("shard boom")
	}
}

func TestWorkerPanicReRaisedOnCaller(t *testing.T) {
	p := New(4)
	defer p.Close()
	for _, victim := range []int{0, 2} {
		func() {
			defer func() {
				e := recover()
				if e == nil {
					t.Fatalf("victim=%d: panic not re-raised", victim)
				}
				if s, ok := e.(string); !ok || !strings.Contains(s, "shard boom") {
					t.Fatalf("victim=%d: unexpected panic payload %v", victim, e)
				}
			}()
			p.Run(&panicTask{victim: victim})
		}()
	}
	// The pool survives a panicked task.
	task := &countTask{hits: make([]int32, 4)}
	p.Run(task)
	if task.total.Load() != 4 {
		t.Fatalf("pool unusable after panic: %d shards ran", task.total.Load())
	}
}

// TestConcurrentPoolsRace exercises many pools concurrently on distinct
// data — the usage pattern of per-rank pools under the race detector.
func TestConcurrentPoolsRace(t *testing.T) {
	const pools = 8
	var wg sync.WaitGroup
	for g := 0; g < pools; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := New(1 + g%4)
			defer p.Close()
			rng := rand.New(rand.NewSource(int64(g)))
			x := make([]float64, 2048)
			y := make([]float64, 2048)
			for i := range x {
				x[i] = rng.Float64()
				y[i] = rng.Float64()
			}
			want := Dot(nil, x, y)
			for rep := 0; rep < 50; rep++ {
				if got := Dot(p, x, y); got != want {
					t.Errorf("pool %d rep %d: Dot drifted", g, rep)
					return
				}
				Axpy(p, 1e-9, x, y)
				want = Dot(nil, x, y)
			}
		}(g)
	}
	wg.Wait()
}

// TestRunSteadyStateAllocs pins the zero-allocation contract of the hot
// path: a reused task runs through the barrier without heap allocation,
// and so do the reduction primitives.
func TestRunSteadyStateAllocs(t *testing.T) {
	p := New(4)
	defer p.Close()
	task := &countTask{hits: make([]int32, 4)}
	p.Run(task) // warm up
	x := make([]float64, 4096)
	y := make([]float64, 4096)
	for i := range x {
		x[i] = float64(i%7) * 0.25
		y[i] = float64(i%5) * 0.5
	}
	var sink float64
	if avg := testing.AllocsPerRun(100, func() { p.Run(task) }); avg > 0 {
		t.Fatalf("Run allocates %.1f objects per barrier", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { sink += Dot(p, x, y) }); avg > 0 {
		t.Fatalf("Dot allocates %.1f objects per call", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { Axpy(p, 1e-12, x, y) }); avg > 0 {
		t.Fatalf("Axpy allocates %.1f objects per call", avg)
	}
	if math.IsNaN(sink) {
		t.Fatal("unreachable")
	}
}

// mustPanicWith runs f and asserts it panics with exactly msg — the
// named misuse messages are part of the package contract (the poollife
// static analyzer quotes them), so the assertion is verbatim.
func mustPanicWith(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		e := recover()
		if e == nil {
			t.Fatalf("no panic; want %q", msg)
		}
		if s, ok := e.(string); !ok || s != msg {
			t.Fatalf("panic %v; want exactly %q", e, msg)
		}
	}()
	f()
}

// TestRunOnClosedPoolPanics pins the closed-pool misuse message for
// every pool width, including the no-goroutine single-worker pool.
func TestRunOnClosedPoolPanics(t *testing.T) {
	for _, nw := range []int{1, 4} {
		p := New(nw)
		p.Close()
		mustPanicWith(t, PanicRunClosed, func() {
			p.Run(&countTask{hits: make([]int32, nw)})
		})
	}
}

// nestedTask re-enters Run on its own pool from inside a shard — the
// barrier deadlock poollife forbids statically. The dynamic check must
// convert it into the named panic instead of hanging.
type nestedTask struct {
	p     *Pool
	inner countTask
}

func (t *nestedTask) RunShard(w, nw int) {
	if w == 0 {
		t.p.Run(&t.inner)
	}
}

func TestNestedRunPanics(t *testing.T) {
	for _, nw := range []int{1, 4} {
		p := New(nw)
		task := &nestedTask{p: p, inner: countTask{hits: make([]int32, nw)}}
		func() {
			defer func() {
				e := recover()
				if e == nil {
					t.Fatalf("nw=%d: nested Run did not panic", nw)
				}
				// Worker 0 is the caller for nw=1..n, so the nested
				// panic surfaces either directly or re-wrapped by the
				// outer barrier; the named message must survive both.
				if s, ok := e.(string); !ok || !strings.Contains(s, PanicNestedRun) {
					t.Fatalf("nw=%d: panic %v; want it to carry %q", nw, e, PanicNestedRun)
				}
			}()
			p.Run(task)
		}()
		// The pool survives the contained misuse.
		after := &countTask{hits: make([]int32, nw)}
		p.Run(after)
		if got := after.total.Load(); got != int32(nw) {
			t.Fatalf("nw=%d: pool unusable after nested-Run panic: %d shards ran", nw, got)
		}
		p.Close()
	}
}

// closeTask closes its own pool from inside a shard.
type closeTask struct{ p *Pool }

func (t *closeTask) RunShard(w, nw int) {
	if w == 0 {
		t.p.Close()
	}
}

func TestCloseDuringRunPanics(t *testing.T) {
	p := New(2)
	defer p.Close()
	func() {
		defer func() {
			e := recover()
			if e == nil {
				t.Fatal("Close during Run did not panic")
			}
			if s, ok := e.(string); !ok || !strings.Contains(s, PanicCloseDuringRun) {
				t.Fatalf("panic %v; want it to carry %q", e, PanicCloseDuringRun)
			}
		}()
		p.Run(&closeTask{p: p})
	}()
}
