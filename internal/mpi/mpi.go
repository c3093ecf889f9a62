// Package mpi is a small message-passing runtime over goroutines and
// channels — the repository's executable stand-in for MPI. Where
// internal/machine *models* a distributed machine's time, this package
// *runs* rank programs concurrently with real point-to-point messages,
// reductions, and barriers, so the domain-decomposed algorithms can be
// validated end-to-end against their sequential counterparts
// (internal/dist builds a distributed solver on top).
//
// The runtime is hardened for chaos runs (internal/faults): a deadlock
// watchdog turns a quiesced-but-unfinished world into a structured
// WorldError with per-rank blocked-operation state instead of a hung
// test; a rank panic is contained, cancels the world, and surfaces as a
// WorldError naming the rank and its in-flight requests; and a rank
// returning early — with an error, or with nonblocking requests still
// in flight — cancels the world so its peers fail loudly instead of
// blocking forever on the ticket chains.
package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"petscfun3d/internal/faults"
)

// message is a tagged payload between two ranks.
type message struct {
	tag  Tag
	data []float64
}

// Comm is one rank's endpoint of a communicator.
type Comm struct {
	rank int
	size int
	w    *world
}

// pairState orders the traffic of one directed (from, to) pair: the
// channel carries the payloads, and the send/recv ticket chains
// serialize concurrent nonblocking operations so messages always match
// in posting order (the FIFO guarantee real MPI gives per communicator
// pair).
type pairState struct {
	ch chan message
	// sendTail / recvTail are the completion signals of the most
	// recently posted send / receive on this pair; the next operation
	// waits for them before touching the channel. Guarded by mu.
	mu       sync.Mutex
	sendTail chan struct{}
	recvTail chan struct{}
}

// opKind classifies the blocking operation a rank is inside, for the
// watchdog's per-rank state report.
type opKind uint8

const (
	opIdle opKind = iota
	opSend
	opRecv
	opWaitSend
	opWaitRecv
	opReduce
	opGather
	opDone
)

var opKindNames = [...]string{
	opIdle:     "idle (computing)",
	opSend:     "send",
	opRecv:     "recv",
	opWaitSend: "wait isend",
	opWaitRecv: "wait irecv",
	opReduce:   "allreduce/barrier",
	opGather:   "allgather",
	opDone:     "done",
}

// rankOp is one rank's last-recorded operation; formatted lazily, so
// recording it costs a struct assignment, not an allocation.
type rankOp struct {
	kind opKind
	peer int
	tag  Tag
}

func (o rankOp) String() string {
	switch o.kind {
	case opSend, opWaitSend:
		return fmt.Sprintf("%s->%d tag %d", opKindNames[o.kind], o.peer, o.tag)
	case opRecv, opWaitRecv:
		return fmt.Sprintf("%s<-%d tag %d", opKindNames[o.kind], o.peer, o.tag)
	default:
		return opKindNames[o.kind]
	}
}

// RankState is one rank's last-known state inside a failed world.
type RankState struct {
	Rank     int
	Op       string // last recorded operation ("recv<-1 tag 2", "done", ...)
	InFlight int    // nonblocking requests posted and not yet waited
}

// WorldError is the structured failure of a world: the watchdog firing,
// a rank panicking, or a rank abandoning in-flight requests. It names
// the offending rank (−1 when the failure is not rank-specific) and
// carries every rank's last-known operation state, so a failed chaos
// run reads like a stack dump instead of a hung test.
type WorldError struct {
	Reason     string      // what killed the world
	Rank       int         // offending rank, or -1
	PanicValue any         // recovered panic payload, when a rank panicked
	Ranks      []RankState // per-rank state captured at failure time
}

func (e *WorldError) Error() string {
	var sb strings.Builder
	sb.WriteString("mpi: ")
	sb.WriteString(e.Reason)
	for _, r := range e.Ranks {
		fmt.Fprintf(&sb, "; rank %d: %s", r.Rank, r.Op)
		if r.InFlight > 0 {
			fmt.Fprintf(&sb, " (%d requests in flight)", r.InFlight)
		}
	}
	return sb.String()
}

// ErrAborted is wrapped by every error a rank receives because the
// world was cancelled out from under it (by the watchdog, a peer's
// panic, or a peer's early exit). Rank programs should propagate it;
// Run reports the root cause, not these secondary failures.
var ErrAborted = errors.New("mpi: world aborted")

// worldAbort is the sentinel panic that unwinds a rank blocked in an
// operation with no error return (Send, AllReduce, Barrier) once the
// world is cancelled; Run's containment converts it back into an
// ErrAborted-wrapped error and never lets it escape.
type worldAbort struct{}

// world holds the shared channel fabric.
type world struct {
	size   int
	pairs  []*pairState // pairs[from*size+to] carries messages from->to
	faults *faults.Plan // nil when no fault injection is armed

	// Failure machinery: stop closes exactly once with cause set first;
	// progress counts completed operations (the watchdog's liveness
	// signal); inflight counts each rank's posted-but-unwaited
	// requests; stat records each rank's last blocking operation.
	stop     chan struct{}
	stopOnce sync.Once
	cause    *WorldError
	progress atomic.Int64
	inflight []atomic.Int64
	stMu     sync.Mutex
	stat     []rankOp

	// Reduction fabric: a generation-counted rendezvous shared by the
	// reductions and AllGather (SPMD programs call collectives in the
	// same order, so one generation counter serves both). Results are
	// double-buffered by generation parity, so a rank re-entering the
	// next collective never waits on — or races with — a slow peer
	// still reading the previous generation's slot.
	redMu   sync.Mutex
	redCond *sync.Cond
	aborted bool
	redIn   int
	redGen  int64
	redVals []float64
	redRes  [2]float64
	vecVals [][]float64
	vecRes  [2][]float64
	gatVals [][]float64
	gatRes  [2][][]float64
}

// DefaultWatchdogTimeout is the no-progress window after which an
// unfinished world is declared deadlocked when Options does not set
// one. It is deliberately generous: plan construction at large mesh
// sizes legitimately computes for a long time between operations.
const DefaultWatchdogTimeout = 90 * time.Second

// Options configures the communicator fabric. The zero value asks for
// defaults.
type Options struct {
	// ChanCap is the per-pair channel capacity — the number of sends a
	// rank can complete toward one peer before the peer receives any of
	// them. 0 derives a default from the communicator size. Blocking
	// Send deadlocks once a pair holds ChanCap undelivered messages
	// (ISend does not: its delivery goroutine blocks instead of the
	// rank), so patterns with deep outstanding-send windows should size
	// the fabric explicitly.
	ChanCap int
	// WatchdogTimeout arms the deadlock watchdog: a world that makes no
	// progress (no message delivered or received, no collective
	// completed, no rank finished) for this long while ranks are still
	// running is cancelled with a WorldError reporting every rank's
	// blocked operation. 0 selects DefaultWatchdogTimeout; negative
	// disables the watchdog (a hung `go test` is then the caller's
	// problem again).
	WatchdogTimeout time.Duration
	// Faults, when non-nil, injects the plan's deterministic timing
	// faults (and at most one panic) into every send, receive, and
	// reduction. Run arms the plan; a Plan is single-use.
	Faults *faults.Plan
}

// DefaultChanCap returns the per-pair buffer depth used when Options
// leaves ChanCap zero: deep enough that every rank can have several
// collective-free exchange rounds in flight toward one peer, and grows
// with the communicator so all-to-all bursts (size-1 sends per rank) fit.
func DefaultChanCap(size int) int {
	c := 4 * size
	if c < 16 {
		c = 16
	}
	return c
}

// Run executes f on `size` ranks concurrently and waits for all of them.
// The first non-nil error is returned, with secondary cancellation
// errors suppressed in favor of the root cause. A rank that errors,
// panics, or returns with nonblocking requests still in flight cancels
// the world: its peers' blocked operations fail with ErrAborted-wrapped
// errors instead of deadlocking, and a contained panic or abandoned
// request surfaces as a *WorldError. Optional Options size the fabric,
// tune the deadlock watchdog, and arm fault injection (at most one
// Options may be given).
func Run(size int, f func(c *Comm) error, opts ...Options) error {
	if size < 1 {
		return fmt.Errorf("mpi: size %d < 1", size)
	}
	if len(opts) > 1 {
		return fmt.Errorf("mpi: Run takes at most one Options, got %d", len(opts))
	}
	var o Options
	if len(opts) == 1 {
		o = opts[0]
	}
	if o.ChanCap < 0 {
		return fmt.Errorf("mpi: negative ChanCap %d", o.ChanCap)
	}
	if o.ChanCap == 0 {
		o.ChanCap = DefaultChanCap(size)
	}
	if o.WatchdogTimeout == 0 {
		o.WatchdogTimeout = DefaultWatchdogTimeout
	}
	if o.Faults != nil {
		if err := o.Faults.Arm(size); err != nil {
			return err
		}
	}
	w := &world{size: size, faults: o.Faults, stop: make(chan struct{})}
	w.redCond = sync.NewCond(&w.redMu)
	w.redVals = make([]float64, size)
	w.vecVals = make([][]float64, size)
	w.gatVals = make([][]float64, size)
	w.inflight = make([]atomic.Int64, size)
	w.stat = make([]rankOp, size)
	w.pairs = make([]*pairState, size*size)
	closed := make(chan struct{})
	close(closed)
	for i := range w.pairs {
		//lint:alloc-ok one-time fabric construction at communicator startup
		ch := make(chan message, o.ChanCap)
		w.pairs[i] = &pairState{ch: ch, sendTail: closed, recvTail: closed}
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) { //lint:alloc-ok one goroutine per rank at communicator startup
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				w.setOp(rank, rankOp{kind: opDone})
				w.progress.Add(1)
				if _, ok := r.(worldAbort); ok {
					errs[rank] = w.abortErr()
					return
				}
				// Genuine rank panic: contain it, cancel the world, and
				// make this rank's error the structured root cause.
				we := &WorldError{
					Reason:     fmt.Sprintf("rank %d panicked: %v", rank, r),
					Rank:       rank,
					PanicValue: r,
				}
				w.cancel(we)
				errs[rank] = we
			}()
			err := f(&Comm{rank: rank, size: size, w: w})
			if n := w.inflight[rank].Load(); n > 0 && err == nil {
				// A silently leaked request blocks the peer forever on
				// the pair's ticket chain, or (an eager send) hides a
				// missing Wait until the fabric is full; fail loudly.
				err = &WorldError{
					Reason: fmt.Sprintf("rank %d returned with %d nonblocking requests still in flight (never waited); Wait on every Request before returning", rank, n),
					Rank:   rank,
				}
			}
			errs[rank] = err
			w.setOp(rank, rankOp{kind: opDone})
			w.progress.Add(1)
			if err != nil {
				w.cancel(&WorldError{
					Reason: fmt.Sprintf("rank %d failed: %v", rank, err),
					Rank:   rank,
				})
			}
		}(r)
	}
	watchdogDone := make(chan struct{})
	if o.WatchdogTimeout > 0 {
		go w.watchdog(o.WatchdogTimeout, watchdogDone)
	}
	wg.Wait()
	close(watchdogDone)
	// Root cause first: a rank's own error beats the secondary
	// ErrAborted failures cancellation spread to its peers.
	var aborted error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrAborted) {
			if aborted == nil {
				aborted = err
			}
			continue
		}
		return err
	}
	if aborted != nil {
		// Every failing rank failed *because* the world was cancelled;
		// report the cancellation's cause (e.g. the watchdog report).
		if w.cause != nil {
			return w.cause
		}
		return aborted
	}
	return nil
}

// watchdog cancels a world that makes no progress for a full timeout
// while ranks are still running, reporting every rank's last blocked
// operation. Sampling at timeout/8 bounds the detection latency at
// 9/8·timeout without a timer per operation.
func (w *world) watchdog(timeout time.Duration, done chan struct{}) {
	tick := timeout / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	last := w.progress.Load()
	var stale time.Duration
	for {
		select {
		case <-done:
			return
		case <-w.stop:
			return
		case <-ticker.C:
		}
		cur := w.progress.Load()
		if cur != last {
			last, stale = cur, 0
			continue
		}
		stale += tick
		if stale < timeout {
			continue
		}
		w.cancel(&WorldError{
			Reason: fmt.Sprintf("deadlock watchdog: no progress for %v with unfinished ranks", stale.Round(time.Millisecond)),
			Rank:   -1,
		})
		return
	}
}

// cancel records the root cause and wakes every blocked operation; only
// the first caller wins.
func (w *world) cancel(cause *WorldError) {
	w.stopOnce.Do(func() {
		if cause.Ranks == nil {
			cause.Ranks = w.snapshot()
		}
		w.cause = cause
		close(w.stop)
		w.redMu.Lock()
		w.aborted = true
		w.redCond.Broadcast()
		w.redMu.Unlock()
	})
}

// snapshot captures every rank's last-known operation state.
func (w *world) snapshot() []RankState {
	w.stMu.Lock()
	defer w.stMu.Unlock()
	out := make([]RankState, w.size)
	for r := range out {
		out[r] = RankState{Rank: r, Op: w.stat[r].String(), InFlight: int(w.inflight[r].Load())}
	}
	return out
}

// setOp records rank's current blocking operation for the watchdog
// report.
func (w *world) setOp(rank int, op rankOp) {
	w.stMu.Lock()
	w.stat[rank] = op
	w.stMu.Unlock()
}

// abortErr returns the ErrAborted-wrapped secondary error a blocked
// operation fails with after cancellation.
func (w *world) abortErr() error {
	reason := "cancelled"
	if w.cause != nil {
		reason = w.cause.Reason
	}
	return fmt.Errorf("%w (%s)", ErrAborted, reason)
}

// beforeOp consults the fault plan at an operation entry on the rank's
// own goroutine, applying injected jitter/stalls and raising the plan's
// injected panic.
func (w *world) beforeOp(rank int) {
	if w.faults != nil && w.faults.BeforeOp(rank) {
		//lint:panic-ok deterministic fault injection: Run's containment converts this panic into a structured WorldError
		panic(faults.InjectedPanic{Rank: rank, Seed: w.faults.Seed})
	}
}

// waitTicket blocks until the previous operation on a pair's ticket
// chain completes, or fails once the world is cancelled.
func (w *world) waitTicket(prev chan struct{}) error {
	select {
	case <-prev:
		return nil
	default:
	}
	select {
	case <-prev:
		return nil
	case <-w.stop:
		return w.abortErr()
	}
}

// putMsg places m in the pair's channel, blocking while the fabric is
// full but failing instead of blocking forever once the world is
// cancelled.
func (w *world) putMsg(p *pairState, m message) error {
	select {
	case p.ch <- m:
		w.progress.Add(1)
		return nil
	default:
	}
	select {
	case p.ch <- m:
		w.progress.Add(1)
		return nil
	case <-w.stop:
		return w.abortErr()
	}
}

// takeMsg receives the next message from the pair's channel, failing
// once the world is cancelled.
func (w *world) takeMsg(p *pairState) (message, error) {
	select {
	case m := <-p.ch:
		w.progress.Add(1)
		return m, nil
	default:
	}
	select {
	case m := <-p.ch:
		w.progress.Add(1)
		return m, nil
	case <-w.stop:
		return message{}, w.abortErr()
	}
}

// Protect runs f and converts the unwind of a cancelled no-error-return
// operation (Send, AllReduce, Barrier — which cannot report the world's
// cancellation themselves) into the ErrAborted-wrapped error it stands
// for. Drivers that want to abort gracefully — close profiler spans,
// return a partial result — wrap their fallible sections in Protect;
// without it the unwind propagates to Run's containment and the rank's
// partial state is lost. Foreign panics pass through unchanged.
func (c *Comm) Protect(f func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(worldAbort); ok {
			err = c.w.abortErr()
			return
		}
		//lint:panic-ok re-raising a foreign panic unchanged; only the runtime's own abort unwind is absorbed
		panic(r)
	}()
	return f()
}

// Rank returns this rank's id in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.size }

// takeSendSlot reserves the next send turn on the pair, returning the
// previous turn's completion signal and the channel to close when this
// turn's message is in the fabric.
func (p *pairState) takeSendSlot() (prev, done chan struct{}) {
	done = make(chan struct{})
	p.mu.Lock()
	prev, p.sendTail = p.sendTail, done
	p.mu.Unlock()
	return prev, done
}

// takeRecvSlot reserves the next receive turn on the pair.
func (p *pairState) takeRecvSlot() (prev, done chan struct{}) {
	done = make(chan struct{})
	p.mu.Lock()
	prev, p.recvTail = p.recvTail, done
	p.mu.Unlock()
	return prev, done
}

// Request is an outstanding nonblocking operation (ISend or IRecv).
// Wait blocks until the operation completes; for a receive it returns
// the payload. Wait may be called more than once (later calls return
// the same result) and from the posting rank's goroutine only. A
// request counts as in flight from its post until its first Wait
// returns — not until the operation completes — so a rank that returns
// without waiting an eagerly delivered send fails Run as well.
type Request struct {
	w      *world
	rank   int
	op     rankOp // the posted operation, for the watchdog report
	done   chan struct{}
	data   []float64 // receive payload (nil for sends)
	err    error
	waited bool // a Wait has returned; touched by the posting rank only

	// Deferred operations race a helper goroutine (progress when Wait
	// comes late or never) against Wait itself (no scheduling handoff
	// when it comes first); claimed arbitrates, run performs the op and
	// closes done.
	claimed int32
	run     func()
}

// claim returns true exactly once per request.
func (r *Request) claim() bool { return atomic.CompareAndSwapInt32(&r.claimed, 0, 1) }

// complete marks the operation finished and releases the ticket chain.
func (r *Request) complete() { close(r.done) }

// retire ends the request's in-flight count on its first Wait and
// passes that Wait's result through.
func (r *Request) retire(data []float64, err error) ([]float64, error) {
	if !r.waited {
		r.waited = true
		r.w.inflight[r.rank].Add(-1)
	}
	return data, err
}

// fail records err and completes the request.
func (r *Request) fail(err error) {
	r.err = err
	r.complete()
}

// Wait blocks until the operation completes. For an IRecv it returns
// the received payload; for an ISend the data slice is nil. If the
// operation has not started yet, Wait performs it on the calling
// goroutine — on oversubscribed cores this skips the scheduling handoff
// to a starved helper goroutine. Once the world is cancelled, Wait
// fails with an ErrAborted-wrapped error instead of blocking forever.
func (r *Request) Wait() ([]float64, error) {
	if r.run != nil && r.claim() {
		r.run()
	}
	select {
	case <-r.done:
		return r.retire(r.data, r.err)
	default:
	}
	r.w.setOp(r.rank, r.op)
	select {
	case <-r.done:
		r.w.setOp(r.rank, rankOp{kind: opIdle})
		return r.retire(r.data, r.err)
	case <-r.w.stop:
		r.w.setOp(r.rank, rankOp{kind: opIdle})
		return r.retire(nil, r.w.abortErr())
	}
}

// Send delivers a copy of data to rank `to` with the given tag. It
// blocks while the pair already holds Options.ChanCap undelivered
// messages; use ISend for communication/computation overlap or deep
// outstanding-send windows. Once the world is cancelled a blocked Send
// unwinds (Run reports the cancellation cause) instead of deadlocking.
func (c *Comm) Send(to int, tag Tag, data []float64) {
	w := c.w
	w.beforeOp(c.rank)
	cp := make([]float64, len(data))
	copy(cp, data)
	p := w.pairs[c.rank*c.size+to]
	prev, done := p.takeSendSlot()
	w.setOp(c.rank, rankOp{kind: opSend, peer: to, tag: tag})
	if err := w.waitTicket(prev); err != nil {
		//lint:panic-ok Send has no error return; the worldAbort sentinel unwinds the cancelled rank and Run converts it to an error
		panic(worldAbort{})
	}
	if w.faults != nil {
		if d := w.faults.MessageDelay(c.rank, to); d > 0 {
			time.Sleep(d)
		}
	}
	if err := w.putMsg(p, message{tag: tag, data: cp}); err != nil {
		//lint:panic-ok Send has no error return; the worldAbort sentinel unwinds the cancelled rank and Run converts it to an error
		panic(worldAbort{})
	}
	close(done)
	w.setOp(c.rank, rankOp{kind: opIdle})
}

// ISend posts a nonblocking send of a copy of data to rank `to`; the
// caller may reuse data immediately. Delivery proceeds in posting order
// per pair; Wait returns once the message is in the fabric (not
// necessarily received, as with MPI's buffered sends). ISend never
// deadlocks on fabric capacity — when the pair is free and the fabric
// has room the message is delivered inline (an "eager" send), otherwise
// a background goroutine absorbs the wait.
func (c *Comm) ISend(to int, tag Tag, data []float64) *Request {
	w := c.w
	w.beforeOp(c.rank)
	cp := make([]float64, len(data))
	copy(cp, data)
	p := w.pairs[c.rank*c.size+to]
	prev, done := p.takeSendSlot()
	req := &Request{w: w, rank: c.rank, done: done, op: rankOp{kind: opWaitSend, peer: to, tag: tag}}
	w.inflight[c.rank].Add(1)
	var delay time.Duration
	if w.faults != nil {
		delay = w.faults.MessageDelay(c.rank, to)
	}
	// Eager path: if the previous send on this pair already completed,
	// the channel has spare capacity, and no wire delay is scheduled,
	// deliver without spawning a goroutine. On oversubscribed cores
	// spawned delivery goroutines can be starved behind compute-bound
	// ranks, which would stall the receiving peer's Wait for a
	// scheduling quantum.
	if delay == 0 {
		select {
		case <-prev:
			select {
			case p.ch <- message{tag: tag, data: cp}:
				w.progress.Add(1)
				req.complete()
				return req
			default:
			}
		default:
		}
	}
	req.run = func() {
		if err := w.waitTicket(prev); err != nil {
			req.fail(err)
			return
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if err := w.putMsg(p, message{tag: tag, data: cp}); err != nil {
			req.fail(err)
			return
		}
		req.complete()
	}
	go func() {
		select {
		case <-prev:
		case <-w.stop:
		}
		if req.claim() {
			req.run()
		}
	}()
	return req
}

// Recv receives the next message from rank `from`; the tag must match
// (messages between a pair are ordered, so SPMD programs with matching
// send/recv sequences never mismatch).
//
// A tag mismatch is a protocol error that poisons the pair: the
// mismatched message has already been consumed from the ordered stream
// and is dropped (the error reports its tag and payload length), so
// every later receive on the pair would see a shifted stream. Treat the
// communicator as unusable after a non-nil error and tear the run down.
func (c *Comm) Recv(from int, tag Tag) ([]float64, error) {
	w := c.w
	w.beforeOp(c.rank)
	p := w.pairs[from*c.size+c.rank]
	prev, done := p.takeRecvSlot()
	w.setOp(c.rank, rankOp{kind: opRecv, peer: from, tag: tag})
	defer w.setOp(c.rank, rankOp{kind: opIdle})
	if err := w.waitTicket(prev); err != nil {
		return nil, err
	}
	m, err := w.takeMsg(p)
	if err != nil {
		return nil, err
	}
	close(done)
	return checkTag(m, c.rank, from, tag)
}

// IRecv posts a nonblocking receive of the next message from rank
// `from`. Receives match sends in posting order per pair (also relative
// to blocking Recv calls). Wait returns the payload, or the Recv tag
// mismatch error (see Recv for the poisoned-pair semantics).
func (c *Comm) IRecv(from int, tag Tag) *Request {
	w := c.w
	w.beforeOp(c.rank)
	p := w.pairs[from*c.size+c.rank]
	prev, done := p.takeRecvSlot()
	req := &Request{w: w, rank: c.rank, done: done, op: rankOp{kind: opWaitRecv, peer: from, tag: tag}}
	w.inflight[c.rank].Add(1)
	req.run = func() {
		if err := w.waitTicket(prev); err != nil {
			req.fail(err)
			return
		}
		m, err := w.takeMsg(p)
		if err != nil {
			req.fail(err)
			return
		}
		req.data, req.err = checkTag(m, c.rank, from, tag)
		req.complete()
	}
	go func() {
		// Progress even if Wait is never called (e.g. a blocking Recv
		// posted after this IRecv waits on its completion); the claim
		// keeps exactly one of helper and Wait on the channel.
		select {
		case <-prev:
		case <-w.stop:
		}
		if req.claim() {
			req.run()
		}
	}()
	return req
}

// checkTag validates a received message's tag.
func checkTag(m message, rank, from int, tag Tag) ([]float64, error) {
	if m.tag != tag {
		return nil, fmt.Errorf(
			"mpi: rank %d expected tag %d from %d, got tag %d (%d-value payload dropped; the pair's message stream is poisoned — later receives will misalign)",
			rank, tag, from, m.tag, len(m.data))
	}
	return m.data, nil
}

// AllReduceSum returns the sum of x across all ranks (a synchronizing
// collective). The combine always runs in rank order, so the float
// accumulation is deterministic regardless of arrival order.
func (c *Comm) AllReduceSum(x float64) float64 {
	return c.allReduce(x, func(vals []float64) float64 {
		var s float64
		for _, v := range vals {
			s += v
		}
		return s
	})
}

// AllReduceSumVec sums x elementwise across all ranks into out
// (out[i] = Σ over ranks of that rank's x[i]) in ONE synchronizing
// collective for the whole vector — the batched reduction behind the
// fused orthogonalization, collapsing a Hessenberg column's worth of
// global syncs into a single rendezvous. Every rank must pass the same
// length, and out must hold it. Per element the combine runs in
// ascending rank order — exactly AllReduceSum's accumulation — so each
// out[i] is bitwise identical to AllReduceSum(x[i]) called on its own.
// out may alias x: the deposited slices are read only by the combine,
// which completes before any rank of the generation returns.
func (c *Comm) AllReduceSumVec(x, out []float64) {
	w := c.w
	w.beforeOp(c.rank)
	w.setOp(c.rank, rankOp{kind: opReduce})
	w.rendezvous(
		func() { w.vecVals[c.rank] = x },
		func(gen int64) {
			k := len(x) // SPMD: every rank deposited this length
			res := w.vecRes[gen&1]
			if cap(res) < k {
				// The result slot grows once to the largest vector seen,
				// then is reused: the steady state allocates nothing.
				res = make([]float64, k)
			}
			res = res[:k]
			for i := range res {
				var s float64
				for _, v := range w.vecVals {
					s += v[i]
				}
				res[i] = s
			}
			w.vecRes[gen&1] = res
			for r := range w.vecVals {
				w.vecVals[r] = nil
			}
		},
		func(gen int64) { copy(out, w.vecRes[gen&1]) },
	)
	w.setOp(c.rank, rankOp{kind: opIdle})
}

// AllReduceMax returns the maximum of x across all ranks.
func (c *Comm) AllReduceMax(x float64) float64 {
	return c.allReduce(x, func(vals []float64) float64 {
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	})
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() { c.allReduce(0, func([]float64) float64 { return 0 }) }

// allReduce deposits x, lets the last rank in combine all deposits, and
// returns the completed generation's result.
func (c *Comm) allReduce(x float64, combine func([]float64) float64) float64 {
	w := c.w
	w.beforeOp(c.rank)
	w.setOp(c.rank, rankOp{kind: opReduce})
	var res float64
	w.rendezvous(
		func() { w.redVals[c.rank] = x },
		func(gen int64) { w.redRes[gen&1] = combine(w.redVals) },
		func(gen int64) { res = w.redRes[gen&1] },
	)
	w.setOp(c.rank, rankOp{kind: opIdle})
	return res
}

// AllGather deposits this rank's values and returns every rank's
// deposit, indexed by rank (a collective; every rank must call it with
// the same generation discipline as the reductions). The returned
// slices are copies snapped when the generation completed, shared by
// all ranks of that generation — treat them as read-only. The caller's
// x is copied before AllGather returns, so it may be reused
// immediately. Used for plan-time negotiation (who talks to whom), not
// on hot paths.
func (c *Comm) AllGather(x []float64) [][]float64 {
	w := c.w
	w.beforeOp(c.rank)
	w.setOp(c.rank, rankOp{kind: opGather})
	var out [][]float64
	w.rendezvous(
		func() { w.gatVals[c.rank] = x },
		func(gen int64) {
			snap := make([][]float64, w.size)
			for r, v := range w.gatVals {
				cp := make([]float64, len(v)) //lint:alloc-ok plan-time collective, one snapshot per generation
				copy(cp, v)
				snap[r] = cp
				w.gatVals[r] = nil
			}
			w.gatRes[gen&1] = snap
		},
		func(gen int64) { out = w.gatRes[gen&1] },
	)
	w.setOp(c.rank, rankOp{kind: opIdle})
	return out
}

// rendezvous runs one generation of the collective fabric: deposit this
// rank's contribution, have the last rank in combine the generation,
// and read the result before returning. Results are double-buffered by
// generation parity: a slot is overwritten only two generations later,
// which — because every rank reads generation g before depositing for
// g+1 — cannot happen before every reader of g is done. A slow rank
// still waking up to read generation g therefore never observes
// generation g+1's value, and fast ranks never block on its exit (the
// old single-slot fabric serialized on a full drain of every reader,
// which amplified injected jitter by an extra synchronization per
// collective).
func (w *world) rendezvous(deposit func(), combine func(gen int64), read func(gen int64)) {
	w.redMu.Lock()
	defer w.redMu.Unlock()
	if w.aborted {
		//lint:panic-ok collectives have no error return; the worldAbort sentinel unwinds the cancelled rank and Run converts it to an error
		panic(worldAbort{})
	}
	gen := w.redGen
	deposit()
	w.redIn++
	if w.redIn == w.size {
		combine(gen)
		w.redIn = 0
		w.redGen++
		w.progress.Add(1)
		w.redCond.Broadcast()
	} else {
		for w.redGen == gen {
			w.redCond.Wait()
			if w.aborted {
				//lint:panic-ok collectives have no error return; the worldAbort sentinel unwinds the cancelled rank and Run converts it to an error
				panic(worldAbort{})
			}
		}
	}
	read(gen)
}
