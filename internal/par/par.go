// Package par is the node-level worker-pool runtime behind the solver's
// shared-memory parallelism — the "threads within a rank" axis of the
// paper's hybrid MPI/OpenMP study (Table 5). A Pool owns a fixed set of
// persistent worker goroutines with a reusable barrier: running a task
// costs two channel operations per worker and zero steady-state heap
// allocation (no per-sweep goroutine forks, no closures), so the pool
// can sit inside the tightest solver loops — triangular solves, SpMV,
// dot products — without perturbing the roofline accounting.
//
// Every primitive in this package is deterministic by construction:
// work is partitioned by fixed owner-computes rules that depend only on
// the problem shape (never on scheduling), and reductions combine
// fixed-shape partials in ascending index order. Kernels that preserve
// the sequential per-element accumulation order (the level-scheduled
// ILU solve, the striped SpMV) are bitwise identical to their
// sequential counterparts at every worker count.
//
// A Pool serves one caller at a time: Run is a barrier for the calling
// goroutine, and the scratch carried by the reduction primitives is
// per-pool. Concurrent solver paths (e.g. the per-rank goroutines of
// internal/dist) each get their own Pool.
package par

import (
	"fmt"
	"sync"
)

// Task is one parallel region. RunShard is invoked once per worker with
// that worker's index and the total worker count; the task partitions
// its work by (worker, nworkers) with a deterministic owner-computes
// rule. Implementations are reused across runs (hot paths keep one task
// value alive and repoint its fields), so RunShard must not retain
// references past its return.
type Task interface {
	RunShard(worker, nworkers int)
}

// Pool misuse panics with one of these named messages, so tests can
// assert the exact failure instead of a hang: running a task on a
// closed pool, re-entering Run from inside a task of the same pool
// (the nested barrier can never complete — worker goroutines are
// already parked in the outer Run), and closing a pool with a Run in
// flight.
const (
	PanicRunClosed      = "par: Run on closed Pool"
	PanicNestedRun      = "par: nested Run on Pool"
	PanicCloseDuringRun = "par: Close during Run"
)

// Pool is a persistent set of worker goroutines with a reusable
// barrier. The zero value is not usable; call New. A nil *Pool is valid
// everywhere and behaves as one worker running inline.
type Pool struct {
	nw      int
	wake    []chan Task // one buffered channel per worker 1..nw-1
	wg      sync.WaitGroup
	panics  []any // per-worker recovered panic, re-raised on the caller
	closed  bool
	running bool // a Run is in flight; guards nested Run and Close misuse

	// Reusable task values and partial-sum scratch for the reduction
	// primitives in reduce.go and the fused multi-vector kernels in
	// mreduce.go; kept on the pool so the hot path never allocates
	// (on a threaded pool mdotParts grows to the largest batch seen or
	// reserved, then is reused; one worker needs none). Their use is
	// serialized by the pool's one-caller rule.
	dotT      dotTask
	axpyT     axpyTask
	mdotT     mdotTask
	maxpyT    maxpyTask
	dotParts  [Segments]float64
	mdotParts []float64
}

// New creates a pool of n workers (n < 1 is treated as 1). The calling
// goroutine participates as worker 0 of every Run, so a pool of n
// workers spawns n-1 goroutines. Close the pool when done.
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{nw: n, panics: make([]any, n)}
	p.wake = make([]chan Task, n-1)
	for i := range p.wake {
		c := make(chan Task, 1) //lint:alloc-ok one wake channel per worker at pool construction
		p.wake[i] = c
		go p.worker(i+1, c)
	}
	return p
}

// Workers returns the pool's worker count; a nil pool has one.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.nw
}

// Close shuts the worker goroutines down. The pool must be idle (no Run
// in flight); closing mid-Run panics with PanicCloseDuringRun. Close is
// idempotent; closing a nil pool is a no-op.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	if p.running {
		//lint:panic-ok caller misuse: closing a pool with a Run in flight is a programming error, not a data condition
		panic(PanicCloseDuringRun)
	}
	p.closed = true
	for _, c := range p.wake {
		close(c)
	}
}

// Run executes t on every worker and returns when all shards finish —
// a full barrier for the caller, which itself runs shard 0. If any
// shard panicked, Run re-panics on the calling goroutine (lowest worker
// index wins) after the barrier, so panic containment that wraps the
// caller (e.g. the mpi runtime's per-rank recovery) still sees it.
func (p *Pool) Run(t Task) {
	if p == nil {
		t.RunShard(0, 1)
		return
	}
	if p.closed {
		//lint:panic-ok caller misuse: running a task on a closed pool is a programming error, not a data condition
		panic(PanicRunClosed)
	}
	if p.running {
		// A task re-entered Run on its own pool: the workers are parked
		// in the outer barrier, so the inner one can never complete.
		// Reads of the flag from worker shards are synchronized by the
		// wake-channel send; the caller's own shard shares its goroutine.
		//lint:panic-ok caller misuse: a nested barrier deadlocks; fail loudly instead of hanging
		panic(PanicNestedRun)
	}
	p.running = true
	if p.nw == 1 {
		p.shard(t, 0)
	} else {
		p.wg.Add(p.nw - 1)
		for _, c := range p.wake {
			c <- t
		}
		p.shard(t, 0)
		p.wg.Wait()
	}
	p.running = false
	for w, e := range p.panics {
		if e != nil {
			for i := range p.panics {
				p.panics[i] = nil
			}
			//lint:panic-ok re-raise of a worker shard's panic on the caller after the barrier; containment stays with the calling goroutine
			panic(fmt.Sprintf("par: worker %d panicked: %v", w, e))
		}
	}
}

// worker is the persistent loop of workers 1..nw-1.
func (p *Pool) worker(w int, c chan Task) {
	for t := range c {
		p.shard(t, w)
		p.wg.Done()
	}
}

// shard runs one worker's shard, capturing a panic into the worker's
// slot so the barrier always completes; Run re-raises it on the caller.
func (p *Pool) shard(t Task, w int) {
	defer p.catch(w)
	t.RunShard(w, p.nw)
}

func (p *Pool) catch(w int) {
	if e := recover(); e != nil {
		p.panics[w] = e
	}
}

// Stripes fills bounds[0:nw+1] with item boundaries balancing the
// monotone prefix-sum weight array: item i has weight
// prefix[i+1]-prefix[i], and stripe w covers items
// [bounds[w], bounds[w+1]) holding as close to total/nw weight as the
// prefix allows: boundary w is the item boundary nearest total·w/nw
// (the later one on a tie), which matters when items are few and heavy —
// four subdomains over two workers must cut 2 + 2, not 3 + 1. With a
// matrix's RowPtr as the prefix this balances row stripes by nonzero
// count — the owner-computes partition of the threaded SpMV. The
// boundaries depend only on (prefix, nw), never on scheduling.
func Stripes(prefix []int32, nw int, bounds []int32) {
	items := len(prefix) - 1
	total := int64(prefix[items]) - int64(prefix[0])
	bounds[0] = 0
	for w := 1; w < nw; w++ {
		target := int64(prefix[0]) + total*int64(w)/int64(nw)
		// Binary search: smallest i with prefix[i] >= target.
		lo, hi := int(bounds[w-1]), items
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if int64(prefix[mid]) < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > int(bounds[w-1]) && target-int64(prefix[lo-1]) < int64(prefix[lo])-target {
			lo--
		}
		bounds[w] = int32(lo)
	}
	bounds[nw] = int32(items)
}
