// Package faults is a deterministic, seedable fault-injection fabric
// for the goroutine MPI runtime: the chaos rig every distributed path
// is soaked under. A Plan derives, from one seed, a schedule of
// per-rank compute jitter (virtual-clock skew), per-pair message wire
// delays, one-shot rank stalls, and injected panics; internal/mpi
// consults the plan at every send, receive, and reduction. All faults
// perturb *timing* only — payloads, matching order (per-pair FIFO), and
// reduction combine order are untouched — so a correct protocol
// produces bitwise-identical numerics under any plan, and the chaos
// soak tests assert exactly that. The injected skew is also measurable
// (SkewSeconds), which turns a chaos run into a controlled wait-time
// amplifier for the paper's Table 3 implicit-synchronization column.
package faults

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Profile names a canned fault mix.
type Profile string

const (
	// ProfileNone injects nothing (an armed but inert plan).
	ProfileNone Profile = "none"
	// ProfileJitter injects per-rank compute jitter: a deterministic
	// subset of operations sleeps a hash-derived duration, skewing the
	// ranks' virtual clocks apart.
	ProfileJitter Profile = "jitter"
	// ProfileDelay injects per-pair wire delays: a deterministic subset
	// of messages is held back before delivery (FIFO order per pair is
	// preserved — only the clock moves).
	ProfileDelay Profile = "delay"
	// ProfileStall injects one long one-shot stall on one seed-chosen
	// rank at one seed-chosen operation — the descheduled-rank regime
	// the watchdog must tolerate (the stall is far below its timeout).
	ProfileStall Profile = "stall"
	// ProfilePanic injects a panic on one seed-chosen rank at one
	// seed-chosen operation; mpi.Run must contain it and return a
	// structured error naming the rank.
	ProfilePanic Profile = "panic"
	// ProfileMixed combines jitter, delay, and a stall.
	ProfileMixed Profile = "mixed"
)

// Profiles lists the canned profiles.
func Profiles() []Profile {
	return []Profile{ProfileNone, ProfileJitter, ProfileDelay, ProfileStall, ProfilePanic, ProfileMixed}
}

// ParseProfile validates a profile name.
func ParseProfile(s string) (Profile, error) {
	for _, p := range Profiles() {
		if s == string(p) {
			return p, nil
		}
	}
	return "", fmt.Errorf("faults: unknown profile %q (want one of %v)", s, Profiles())
}

// Plan is the fault schedule for one mpi world. Construct it with
// NewPlan, hand it to mpi.Run via mpi.Options.Faults (Run arms it), and
// read SkewSeconds after the run. A Plan is single-use: arming it twice
// is an error, so one plan cannot blur two worlds' accounting.
//
// The knob fields may be tuned between NewPlan and the run; zero values
// take profile defaults at Arm time. All schedule decisions are pure
// hashes of (Seed, rank or pair, operation index), so the same plan
// configuration replays the same faults regardless of scheduling.
type Plan struct {
	Seed    int64
	Profile Profile

	// JitterEvery jitters one in N operations (0 = default 8).
	JitterEvery int
	// JitterMax caps one jitter sleep (0 = default 100µs).
	JitterMax time.Duration
	// DelayEvery delays one in N messages per pair (0 = default 8).
	DelayEvery int
	// DelayMax caps one wire delay (0 = default 200µs).
	DelayMax time.Duration
	// StallLen is the one-shot stall duration (0 = default 5ms). Keep it
	// far below the world's watchdog timeout: a stall is a slow rank,
	// not a dead one.
	StallLen time.Duration
	// StallWindow bounds the operation index at which the stall or
	// panic fires, drawn hash-uniformly from [0, StallWindow)
	// (0 = default 64).
	StallWindow int64

	// armed state (set once by Arm).
	size               int
	ops                []atomic.Int64 // per-rank operation counter
	pairSeq            []atomic.Int64 // per directed pair message counter
	skewNS             []atomic.Int64 // per-rank injected sleep total
	stallRank, stallOp int64
	panicRank, panicOp int64
	jitter, delay      bool
	stall, panicOn     bool
}

// NewPlan returns a plan for the given seed and profile with default
// knob values.
func NewPlan(seed int64, profile Profile) *Plan {
	return &Plan{Seed: seed, Profile: profile}
}

// Arm binds the plan to a communicator size and resolves knob defaults;
// mpi.Run calls it. A plan arms exactly once.
func (p *Plan) Arm(size int) error {
	if size < 1 {
		return fmt.Errorf("faults: arm with size %d < 1", size)
	}
	if p.size != 0 {
		return fmt.Errorf("faults: plan already armed (size %d); use one Plan per mpi.Run", p.size)
	}
	switch p.Profile {
	case ProfileNone, "":
	case ProfileJitter:
		p.jitter = true
	case ProfileDelay:
		p.delay = true
	case ProfileStall:
		p.stall = true
	case ProfilePanic:
		p.panicOn = true
	case ProfileMixed:
		p.jitter, p.delay, p.stall = true, true, true
	default:
		return fmt.Errorf("faults: unknown profile %q", p.Profile)
	}
	if p.JitterEvery == 0 {
		p.JitterEvery = 8
	}
	if p.JitterMax == 0 {
		p.JitterMax = 100 * time.Microsecond
	}
	if p.DelayEvery == 0 {
		p.DelayEvery = 8
	}
	if p.DelayMax == 0 {
		p.DelayMax = 200 * time.Microsecond
	}
	if p.StallLen == 0 {
		p.StallLen = 5 * time.Millisecond
	}
	if p.StallWindow == 0 {
		p.StallWindow = 64
	}
	p.size = size
	p.ops = make([]atomic.Int64, size)
	p.pairSeq = make([]atomic.Int64, size*size)
	p.skewNS = make([]atomic.Int64, size)
	p.stallRank = int64(p.hash(streamStall, 0) % uint64(size))
	p.stallOp = int64(p.hash(streamStall, 1) % uint64(p.StallWindow))
	p.panicRank = int64(p.hash(streamPanic, 0) % uint64(size))
	p.panicOp = int64(p.hash(streamPanic, 1) % uint64(p.StallWindow))
	return nil
}

// Size returns the armed communicator size (0 before Arm).
func (p *Plan) Size() int { return p.size }

// BeforeOp is the fabric's per-operation hook, called on rank's own
// goroutine at every send/receive/reduction entry. It applies the
// scheduled compute jitter and the one-shot stall (sleeping here, on
// the rank's clock), and reports whether this operation is the plan's
// injected panic point — the caller raises the panic so its runtime
// containment sees an ordinary rank panic.
func (p *Plan) BeforeOp(rank int) (panicNow bool) {
	if p == nil || p.size == 0 {
		return false
	}
	op := p.ops[rank].Add(1) - 1
	if p.panicOn && int64(rank) == p.panicRank && op == p.panicOp {
		return true
	}
	var d time.Duration
	if p.stall && int64(rank) == p.stallRank && op == p.stallOp {
		d += p.StallLen
	}
	if p.jitter {
		h := p.hash(streamJitter, uint64(rank)<<32|uint64(uint32(op)))
		if h%uint64(p.JitterEvery) == 0 {
			d += time.Duration((h >> 8) % uint64(p.JitterMax))
		}
	}
	if d > 0 {
		p.sleep(rank, d)
	}
	return false
}

// MessageDelay returns the wire delay scheduled for the next message
// posted from->to. The decision is made at posting time (posts to a
// pair are serialized on the sender's goroutine, so the sequence number
// is deterministic); the caller applies the sleep wherever delivery
// happens. The skew is charged to the sending rank here.
func (p *Plan) MessageDelay(from, to int) time.Duration {
	if p == nil || p.size == 0 || !p.delay {
		return 0
	}
	seq := p.pairSeq[from*p.size+to].Add(1) - 1
	h := p.hash(streamDelay, uint64(from*p.size+to)<<32|uint64(uint32(seq)))
	if h%uint64(p.DelayEvery) != 0 {
		return 0
	}
	d := time.Duration((h >> 8) % uint64(p.DelayMax))
	if d > 0 {
		p.skewNS[from].Add(int64(d))
	}
	return d
}

// sleep applies an injected delay on rank's clock and accounts it.
func (p *Plan) sleep(rank int, d time.Duration) {
	p.skewNS[rank].Add(int64(d))
	time.Sleep(d)
}

// SkewSeconds returns the total injected sleep per rank — the plan's
// measured virtual-clock skew, the independent variable of the chaos
// sweep's η_impl-vs-skew table.
func (p *Plan) SkewSeconds() []float64 {
	if p.size == 0 {
		return nil
	}
	out := make([]float64, p.size)
	for r := range out {
		out[r] = time.Duration(p.skewNS[r].Load()).Seconds()
	}
	return out
}

// Ops returns the per-rank operation counts consulted so far (test and
// report hook).
func (p *Plan) Ops() []int64 {
	if p.size == 0 {
		return nil
	}
	out := make([]int64, p.size)
	for r := range out {
		out[r] = p.ops[r].Load()
	}
	return out
}

// String describes the armed schedule.
func (p *Plan) String() string {
	if p.size == 0 {
		return fmt.Sprintf("faults: plan seed=%d profile=%s (unarmed)", p.Seed, p.Profile)
	}
	return fmt.Sprintf("faults: plan seed=%d profile=%s size=%d", p.Seed, p.Profile, p.size)
}

// InjectedPanic is the value the fabric panics with at the plan's
// injected panic point; mpi.Run's containment surfaces it inside the
// structured world error.
type InjectedPanic struct {
	Rank int
	Seed int64
}

func (ip InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic on rank %d (seed %d)", ip.Rank, ip.Seed)
}

// Hash streams keep the independent fault dimensions decorrelated.
const (
	streamJitter = 0x6a697474 // "jitt"
	streamDelay  = 0x64656c61 // "dela"
	streamStall  = 0x7374616c // "stal"
	streamPanic  = 0x70616e69 // "pani"
)

// hash is a splitmix64-style avalanche of (seed, stream, index): cheap,
// stateless, and fully deterministic under any goroutine interleaving.
func (p *Plan) hash(stream, index uint64) uint64 {
	x := uint64(p.Seed) ^ mix64(stream) ^ mix64(index+0x632be59bd9b4e019)
	return mix64(x)
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
