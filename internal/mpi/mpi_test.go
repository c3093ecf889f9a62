package mpi

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestRunRejectsZeroSize(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Error("size 0 accepted")
	}
}

func TestRankAndSize(t *testing.T) {
	seen := make([]bool, 5)
	err := Run(5, func(c *Comm) error {
		if c.Size() != 5 {
			return fmt.Errorf("size %d", c.Size())
		}
		seen[c.Rank()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestSendRecvRing(t *testing.T) {
	const n = 6
	err := Run(n, func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		c.Send(next, 7, []float64{float64(c.Rank())})
		got, err := c.Recv(prev, 7)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != float64(prev) {
			return fmt.Errorf("rank %d got %v from %d", c.Rank(), got, prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not affect the receiver
			c.Barrier()
			return nil
		}
		c.Barrier()
		got, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if got[0] != 1 {
			return fmt.Errorf("send aliased caller buffer: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMismatch(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{1})
			return nil
		}
		if _, err := c.Recv(0, 4); err == nil {
			return fmt.Errorf("tag mismatch not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSumAndMax(t *testing.T) {
	const n = 7
	err := Run(n, func(c *Comm) error {
		s := c.AllReduceSum(float64(c.Rank() + 1))
		if s != n*(n+1)/2 {
			return fmt.Errorf("sum %g", s)
		}
		m := c.AllReduceMax(float64(c.Rank()))
		if m != n-1 {
			return fmt.Errorf("max %g", m)
		}
		// Repeated reductions must not interfere.
		for i := 0; i < 20; i++ {
			got := c.AllReduceSum(1)
			if got != n {
				return fmt.Errorf("iteration %d: sum %g", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSumVec(t *testing.T) {
	const n = 5
	err := Run(n, func(c *Comm) error {
		// Batched vector sums must be bitwise identical to the scalar
		// collective per element, and repeated mixed-width calls (the
		// growing Hessenberg column) must not interfere across
		// generations or with interleaved scalar reductions.
		for k := 1; k <= 9; k++ {
			x := make([]float64, k)
			for i := range x {
				x[i] = 0.1*float64(c.Rank()+1) + float64(i)*1e-3
			}
			want := make([]float64, k)
			for i := range want {
				want[i] = c.AllReduceSum(x[i])
			}
			out := make([]float64, k)
			c.AllReduceSumVec(x, out)
			for i := range want {
				if out[i] != want[i] {
					return fmt.Errorf("k=%d out[%d]=%x, want %x", k, i, out[i], want[i])
				}
			}
			// Aliased form: out == x.
			c.AllReduceSumVec(x, x)
			for i := range want {
				if x[i] != want[i] {
					return fmt.Errorf("aliased k=%d x[%d]=%x, want %x", k, i, x[i], want[i])
				}
			}
			if s := c.AllReduceSum(1); s != n {
				return fmt.Errorf("interleaved scalar sum %g", s)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReductionsSteadyStateAllocs: once the result slot has grown to
// the longest vector, the reductions a Krylov iteration runs allocate
// nothing on any rank. AllocsPerRun counts every goroutine's mallocs;
// the other ranks run the same collectives in lockstep, once more than
// the measured runs for AllocsPerRun's warm-up call.
func TestReductionsSteadyStateAllocs(t *testing.T) {
	const runs = 20
	err := Run(3, func(c *Comm) error {
		x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
		out := make([]float64, len(x))
		step := func() {
			c.AllReduceSumVec(x, out)
			c.AllReduceSum(out[0])
		}
		step()
		if c.Rank() != 0 {
			for i := 0; i <= runs; i++ {
				step()
			}
			return nil
		}
		if avg := testing.AllocsPerRun(runs, step); avg > 0 {
			return fmt.Errorf("an iteration's reductions allocate %.1f objects", avg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceFloatAccuracy(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		x := 0.1 * float64(c.Rank()+1)
		s := c.AllReduceSum(x)
		if math.Abs(s-1.0) > 1e-12 {
			return fmt.Errorf("sum %g", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	// After a barrier, all pre-barrier sends must be receivable.
	err := Run(3, func(c *Comm) error {
		for to := 0; to < 3; to++ {
			if to != c.Rank() {
				c.Send(to, 1, []float64{float64(c.Rank())})
			}
		}
		c.Barrier()
		for from := 0; from < 3; from++ {
			if from == c.Rank() {
				continue
			}
			got, err := c.Recv(from, 1)
			if err != nil {
				return err
			}
			if got[0] != float64(from) {
				return fmt.Errorf("got %v from %d", got, from)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Errorf("error not propagated: %v", err)
	}
}

// TestManyOutstandingSendsPerPair is the regression test for the fabric
// sizing bug: the channel capacity was hard-coded to 8, so any pattern
// with more than 8 outstanding sends toward one peer deadlocked
// silently. The default capacity now derives from the communicator
// size; every rank pushes well past the old limit before anyone
// receives.
func TestManyOutstandingSendsPerPair(t *testing.T) {
	const size = 2
	const msgs = 12 // > 8, the old hard-coded capacity
	err := Run(size, func(c *Comm) error {
		peer := 1 - c.Rank()
		for k := 0; k < msgs; k++ {
			c.Send(peer, 100+Tag(k), []float64{float64(c.Rank()), float64(k)})
		}
		for k := 0; k < msgs; k++ {
			got, err := c.Recv(peer, 100+Tag(k))
			if err != nil {
				return err
			}
			if len(got) != 2 || got[0] != float64(peer) || got[1] != float64(k) {
				return fmt.Errorf("rank %d message %d: payload %v", c.Rank(), k, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExplicitChanCap sizes the fabric explicitly and exchanges a
// window deeper than blocking sends could otherwise absorb.
func TestExplicitChanCap(t *testing.T) {
	const size = 3
	const msgs = 40
	err := Run(size, func(c *Comm) error {
		for q := 0; q < size; q++ {
			if q == c.Rank() {
				continue
			}
			for k := 0; k < msgs; k++ {
				c.Send(q, Tag(k), []float64{float64(k)})
			}
		}
		for q := 0; q < size; q++ {
			if q == c.Rank() {
				continue
			}
			for k := 0; k < msgs; k++ {
				got, err := c.Recv(q, Tag(k))
				if err != nil {
					return err
				}
				if len(got) != 1 || got[0] != float64(k) {
					return fmt.Errorf("rank %d from %d msg %d: %v", c.Rank(), q, k, got)
				}
			}
		}
		return nil
	}, Options{ChanCap: msgs})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultChanCapGrowsWithSize(t *testing.T) {
	if DefaultChanCap(2) < 16 {
		t.Errorf("DefaultChanCap(2) = %d, want >= 16", DefaultChanCap(2))
	}
	if DefaultChanCap(64) <= DefaultChanCap(2) {
		t.Error("default capacity does not grow with communicator size")
	}
}

func TestRunOptionValidation(t *testing.T) {
	noop := func(c *Comm) error { return nil }
	if err := Run(2, noop, Options{ChanCap: -1}); err == nil {
		t.Error("negative ChanCap accepted")
	}
	if err := Run(2, noop, Options{}, Options{}); err == nil {
		t.Error("two Options accepted")
	}
}

// TestISendIRecvCompletionOrdering posts a window of nonblocking sends
// and receives and completes them out of order: messages must still
// match in posting order per pair (the MPI FIFO guarantee), regardless
// of the order Waits are issued in.
func TestISendIRecvCompletionOrdering(t *testing.T) {
	const window = 10
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		sends := make([]*Request, window)
		recvs := make([]*Request, window)
		for k := 0; k < window; k++ {
			sends[k] = c.ISend(peer, 7, []float64{float64(k)})
			recvs[k] = c.IRecv(peer, 7)
		}
		// Complete the receives back to front: request k must still
		// carry the k-th posted payload.
		for k := window - 1; k >= 0; k-- {
			got, err := recvs[k].Wait()
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != float64(k) {
				return fmt.Errorf("rank %d recv %d: payload %v, want [%d]", c.Rank(), k, got, k)
			}
		}
		for _, s := range sends {
			if _, err := s.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestISendBufferReusable asserts ISend's copy-at-post semantics: the
// caller may scribble on the buffer immediately after posting.
func TestISendBufferReusable(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		buf := []float64{42}
		req := c.ISend(peer, 1, buf)
		buf[0] = -1 // must not affect the in-flight payload
		got, err := c.Recv(peer, 1)
		if err != nil {
			return err
		}
		if got[0] != 42 {
			return fmt.Errorf("payload mutated after ISend: %v", got)
		}
		_, err = req.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIRecvInterleavesWithBlockingRecv mixes IRecv and Recv on the same
// pair: posting-order matching must hold across both forms.
func TestIRecvInterleavesWithBlockingRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		for k := 0; k < 4; k++ {
			c.Send(peer, Tag(k), []float64{float64(10 + k)})
		}
		r0 := c.IRecv(peer, 0)
		v1, err := c.Recv(peer, 1)
		if err != nil {
			return err
		}
		r2 := c.IRecv(peer, 2)
		v3, err := c.Recv(peer, 3)
		if err != nil {
			return err
		}
		v0, err := r0.Wait()
		if err != nil {
			return err
		}
		v2, err := r2.Wait()
		if err != nil {
			return err
		}
		for i, v := range [][]float64{v0, v1, v2, v3} {
			if len(v) != 1 || v[0] != float64(10+i) {
				return fmt.Errorf("rank %d slot %d: %v", c.Rank(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvTagMismatchReportsPayload: the mismatch error must name both
// tags and the length of the dropped payload, and flag the stream as
// poisoned (the message is consumed, so later receives misalign).
func TestRecvTagMismatchReportsPayload(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{1, 2, 3})
			return nil
		}
		_, err := c.Recv(0, 9)
		if err == nil {
			return fmt.Errorf("tag mismatch accepted")
		}
		msg := err.Error()
		for _, want := range []string{"tag 9", "tag 5", "3-value payload", "poisoned"} {
			if !strings.Contains(msg, want) {
				return fmt.Errorf("error %q missing %q", msg, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIRecvTagMismatch: the nonblocking receive surfaces the same
// poisoned-pair error through Wait.
func TestIRecvTagMismatch(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{1})
			return nil
		}
		_, err := c.IRecv(0, 6).Wait()
		if err == nil || !strings.Contains(err.Error(), "poisoned") {
			return fmt.Errorf("IRecv tag mismatch not surfaced: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
