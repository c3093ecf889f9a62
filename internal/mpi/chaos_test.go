package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"petscfun3d/internal/faults"
)

// TestWatchdogReportsDeadlock deadlocks two ranks on purpose (each
// receives a message the other never sends) and requires the watchdog
// to cancel the world with a per-rank state report instead of hanging
// the test binary.
func TestWatchdogReportsDeadlock(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		_, err := c.Recv(peer, TagHalo)
		return err
	}, Options{WatchdogTimeout: 100 * time.Millisecond})
	var we *WorldError
	if !errors.As(err, &we) {
		t.Fatalf("want *WorldError, got %v", err)
	}
	if we.Rank != -1 {
		t.Errorf("watchdog error blames rank %d, want -1", we.Rank)
	}
	if !strings.Contains(we.Error(), "watchdog") {
		t.Errorf("error does not mention the watchdog: %v", we)
	}
	if len(we.Ranks) != 2 {
		t.Fatalf("state report covers %d ranks, want 2", len(we.Ranks))
	}
	for _, rs := range we.Ranks {
		if !strings.Contains(rs.Op, "recv") {
			t.Errorf("rank %d state %q does not show the blocked recv", rs.Rank, rs.Op)
		}
	}
}

// TestWatchdogToleratesSlowCompute: a long compute pause without
// communication must not trip the watchdog as long as it is shorter
// than the timeout.
func TestWatchdogToleratesSlowCompute(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(60 * time.Millisecond)
			c.Send(1, TagHalo, []float64{1})
			return nil
		}
		_, err := c.Recv(0, TagHalo)
		return err
	}, Options{WatchdogTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("watchdog fired on a slow-but-live world: %v", err)
	}
}

// TestPanicContainment: one rank's panic must cancel the world and
// surface as a structured error naming the rank — peers blocked in
// receives unwind instead of deadlocking.
func TestPanicContainment(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		// Ranks 0 and 2 wait for a message rank 1 will never send.
		_, err := c.Recv(1, TagHalo)
		return err
	}, Options{WatchdogTimeout: 5 * time.Second})
	var we *WorldError
	if !errors.As(err, &we) {
		t.Fatalf("want *WorldError, got %v", err)
	}
	if we.Rank != 1 {
		t.Errorf("blamed rank %d, want 1", we.Rank)
	}
	if we.PanicValue != "kaboom" {
		t.Errorf("panic value %v, want kaboom", we.PanicValue)
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("error does not say panicked: %v", err)
	}
}

// TestInjectedPanicStructuredError: the faults plan's panic profile must
// come back as a structured world error naming the seed-chosen rank,
// never a hung or crashed test.
func TestInjectedPanicStructuredError(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		plan := faults.NewPlan(seed, faults.ProfilePanic)
		err := Run(4, func(c *Comm) error {
			// Enough collectives that every rank passes the panic window.
			for i := 0; i < 80; i++ {
				c.AllReduceSum(float64(c.Rank()))
			}
			return nil
		}, Options{Faults: plan, WatchdogTimeout: 10 * time.Second})
		var we *WorldError
		if !errors.As(err, &we) {
			t.Fatalf("seed %d: want *WorldError, got %v", seed, err)
		}
		ip, ok := we.PanicValue.(faults.InjectedPanic)
		if !ok {
			t.Fatalf("seed %d: panic value %T, want faults.InjectedPanic", seed, we.PanicValue)
		}
		if ip.Rank != we.Rank || ip.Seed != seed {
			t.Errorf("seed %d: injected panic %+v vs blamed rank %d", seed, ip, we.Rank)
		}
		if !strings.Contains(err.Error(), "injected panic") {
			t.Errorf("seed %d: error does not identify the injection: %v", seed, err)
		}
	}
}

// TestEarlyReturnWithInflightRequests is the satellite-1 regression: a
// rank returning nil with a nonblocking request still in flight used to
// strand its peer on the ticket chain forever; now it must fail loudly.
func TestEarlyReturnWithInflightRequests(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.IRecv(1, TagHalo) // never waited, never matched
			return nil
		}
		return nil
	}, Options{WatchdogTimeout: 5 * time.Second})
	var we *WorldError
	if !errors.As(err, &we) {
		t.Fatalf("want *WorldError, got %v", err)
	}
	if we.Rank != 0 {
		t.Errorf("blamed rank %d, want 0", we.Rank)
	}
	if !strings.Contains(err.Error(), "in flight") {
		t.Errorf("error does not mention the in-flight request: %v", err)
	}
}

// TestEarlyReturnWithUnwaitedEagerSend: a send the fabric delivered
// inline has completed, but it stays in flight until its first Wait, so
// a rank that returns nil without waiting it is still blamed — the
// receiver got its message, and the missing Wait is the whole defect.
func TestEarlyReturnWithUnwaitedEagerSend(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.ISend(1, TagHalo, []float64{1}) // the pair is idle: delivered inline
			return nil
		}
		_, err := c.Recv(0, TagHalo)
		return err
	}, Options{WatchdogTimeout: 5 * time.Second})
	var we *WorldError
	if !errors.As(err, &we) {
		t.Fatalf("want *WorldError, got %v", err)
	}
	if we.Rank != 0 || !strings.Contains(err.Error(), "never waited") {
		t.Errorf("blamed rank %d with %q, want rank 0 and the unwaited request", we.Rank, err)
	}
}

// TestRankErrorCancelsWorld: a rank returning an error must cancel the
// world so a peer blocked on it unwinds, and Run must still report the
// original error verbatim rather than the peer's secondary abort.
func TestRankErrorCancelsWorld(t *testing.T) {
	boom := errors.New("boom")
	start := time.Now()
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		_, err := c.Recv(1, TagHalo) // blocked until cancellation
		return err
	}, Options{WatchdogTimeout: 30 * time.Second})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("cancellation took %v; the peer sat blocked", e)
	}
}

// TestSendUnblocksOnCancel: a Send blocked on a full fabric must unwind
// once the world is cancelled (it has no error return; the abort is
// absorbed by Run).
func TestSendUnblocksOnCancel(t *testing.T) {
	boom := errors.New("peer gave up")
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; ; i++ { // fill the pair until Send blocks
				c.Send(1, TagHalo, []float64{float64(i)})
			}
		}
		time.Sleep(20 * time.Millisecond) // let rank 0 hit the full fabric
		return boom
	}, Options{ChanCap: 2, WatchdogTimeout: 30 * time.Second})
	if !errors.Is(err, boom) {
		t.Fatalf("want the peer's error, got %v", err)
	}
}

// TestReductionGenerationsUnderJitter is the satellite-2 regression: a
// rank re-entering the collective fabric while a jitter-delayed rank is
// still reading the previous generation must never observe the wrong
// generation's value. The double-buffered result slots make this safe
// without serializing on a full drain; the race detector plus the exact
// per-round values check both directions.
func TestReductionGenerationsUnderJitter(t *testing.T) {
	const rounds = 300
	for seed := int64(1); seed <= 3; seed++ {
		plan := faults.NewPlan(seed, faults.ProfileJitter)
		plan.JitterEvery = 2 // jitter hard: every other operation sleeps
		plan.JitterMax = 50 * time.Microsecond
		err := Run(4, func(c *Comm) error {
			for i := 0; i < rounds; i++ {
				x := float64(i*10 + c.Rank())
				sum := c.AllReduceSum(x)
				wantSum := float64(4*10*i + 0 + 1 + 2 + 3)
				if sum != wantSum {
					return fmt.Errorf("round %d rank %d: sum %v, want %v (wrong generation observed)", i, c.Rank(), sum, wantSum)
				}
				max := c.AllReduceMax(x)
				if want := float64(i*10 + 3); max != want {
					return fmt.Errorf("round %d rank %d: max %v, want %v", i, c.Rank(), max, want)
				}
				if i%32 == 0 {
					c.Barrier()
				}
			}
			return nil
		}, Options{Faults: plan, WatchdogTimeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestAllGather checks the gather collective all halo negotiation rides
// on: every rank sees every deposit, indexed by rank, repeatedly, and
// may reuse its buffer immediately after the call.
func TestAllGather(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		buf := make([]float64, c.Rank()+1)
		for round := 0; round < 50; round++ {
			for i := range buf {
				buf[i] = float64(100*round + 10*c.Rank() + i)
			}
			got := c.AllGather(buf)
			for i := range buf { // reuse immediately: gathered copies must not alias
				buf[i] = -1
			}
			if len(got) != 3 {
				return fmt.Errorf("gathered %d ranks", len(got))
			}
			for r, vals := range got {
				if len(vals) != r+1 {
					return fmt.Errorf("round %d: rank %d deposit has %d values, want %d", round, r, len(vals), r+1)
				}
				for i, v := range vals {
					if want := float64(100*round + 10*r + i); v != want {
						return fmt.Errorf("round %d: got[%d][%d] = %v, want %v", round, r, i, v, want)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosTimingFaultsPreserveMessaging soaks the point-to-point plus
// collective protocol under mixed timing faults: payloads and match
// order must be exactly what the fault-free run produces.
func TestChaosTimingFaultsPreserveMessaging(t *testing.T) {
	run := func(plan *faults.Plan) ([]float64, error) {
		sums := make([]float64, 4)
		var opts Options
		opts.WatchdogTimeout = 30 * time.Second
		if plan != nil {
			opts.Faults = plan
		}
		err := Run(4, func(c *Comm) error {
			left := (c.Rank() + 3) % 4
			right := (c.Rank() + 1) % 4
			acc := float64(c.Rank())
			for i := 0; i < 40; i++ {
				rr := c.IRecv(right, TagHalo)
				sr := c.ISend(left, TagHalo, []float64{acc, float64(i)})
				got, err := rr.Wait()
				if err != nil {
					return err
				}
				if _, err := sr.Wait(); err != nil {
					return err
				}
				acc = got[0] + 1
				if got[1] != float64(i) {
					return fmt.Errorf("rank %d round %d: matched message from round %v", c.Rank(), i, got[1])
				}
				acc = c.AllReduceSum(acc) / 4
			}
			sums[c.Rank()] = acc
			return nil
		}, opts)
		return sums, err
	}
	clean, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		plan := faults.NewPlan(seed, faults.ProfileMixed)
		plan.StallLen = 2 * time.Millisecond
		chaos, err := run(plan)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for r := range clean {
			if chaos[r] != clean[r] {
				t.Fatalf("seed %d rank %d: %v != fault-free %v (timing faults changed numerics)", seed, r, chaos[r], clean[r])
			}
		}
		skew := plan.SkewSeconds()
		var total float64
		for _, s := range skew {
			total += s
		}
		if total <= 0 {
			t.Errorf("seed %d: mixed profile injected no skew", seed)
		}
	}
}

// TestStallProfileCompletes: a stalled rank is slow, not dead — the
// watchdog must not shoot it and the run must finish clean.
func TestStallProfileCompletes(t *testing.T) {
	plan := faults.NewPlan(9, faults.ProfileStall)
	plan.StallLen = 20 * time.Millisecond
	err := Run(2, func(c *Comm) error {
		for i := 0; i < 80; i++ {
			c.AllReduceSum(1)
		}
		return nil
	}, Options{Faults: plan, WatchdogTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("stall profile killed the run: %v", err)
	}
	var skew float64
	for _, s := range plan.SkewSeconds() {
		skew += s
	}
	if skew < plan.StallLen.Seconds()*0.99 {
		t.Errorf("stall skew %v below the injected %v", skew, plan.StallLen)
	}
}

// TestReusedFaultPlanRejected: a Plan blurs two worlds' accounting if
// reused; Run must refuse it.
func TestReusedFaultPlanRejected(t *testing.T) {
	plan := faults.NewPlan(1, faults.ProfileNone)
	if err := Run(2, func(c *Comm) error { return nil }, Options{Faults: plan}); err != nil {
		t.Fatal(err)
	}
	err := Run(2, func(c *Comm) error { return nil }, Options{Faults: plan})
	if err == nil || !strings.Contains(err.Error(), "armed") {
		t.Fatalf("reused plan accepted: %v", err)
	}
}
