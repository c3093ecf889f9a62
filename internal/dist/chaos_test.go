package dist

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"petscfun3d/internal/faults"
	"petscfun3d/internal/mpi"
)

// chaosSeeds returns the fault-seed grid for the soak. CI runs the
// small default grid; FUN3D_CHAOS_SEEDS="1,2,3,4" widens it (make chaos
// sets it).
func chaosSeeds(t *testing.T) []int64 {
	env := os.Getenv("FUN3D_CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("FUN3D_CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// soakNewtonOptions keeps the soak's solves short: enough steps that
// the SER law, line search, and per-step Jacobian refresh all run, not
// so many that the seed grid times out under -race.
func soakNewtonOptions() NewtonOptions {
	opts := DefaultNewtonOptions()
	opts.MaxSteps = 6
	opts.RelTol = 1e-10 // never triggers in 6 steps: every run takes all 6
	return opts
}

// runChaosNewton solves the distributed Newton problem at nranks under
// the given fault plan (nil = fault-free) and returns the residual
// history, asserting every rank observed the identical one.
func runChaosNewton(t *testing.T, nranks int, plan *faults.Plan) []float64 {
	t.Helper()
	d, p, q0 := buildResidualProblem(t, 6, 5, 4, nranks)
	hists := make([][]float64, nranks)
	mopts := mpi.Options{WatchdogTimeout: 60 * time.Second, Faults: plan}
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		q := append([]float64(nil), q0...)
		res, err := NewtonSolve(c, d, p.Part, q, soakNewtonOptions(), nil)
		if err != nil {
			return err
		}
		hists[c.Rank()] = res.ResidualHistory()
		return nil
	}, mopts)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < nranks; r++ {
		if len(hists[r]) != len(hists[0]) {
			t.Fatalf("rank %d history length %d vs rank 0's %d", r, len(hists[r]), len(hists[0]))
		}
		for i := range hists[r] {
			if hists[r][i] != hists[0][i] {
				t.Fatalf("rank %d step %d: %v vs rank 0's %v (ranks disagree)", r, i, hists[r][i], hists[0][i])
			}
		}
	}
	return hists[0]
}

// TestChaosSoakNewtonBitwise is the soak the issue demands: the
// distributed Newton solve at 2, 4, and 8 ranks, under every seed in
// the grid with the mixed fault profile (jitter + wire delays + a
// stall), must produce a residual history bitwise identical to the
// fault-free run. Faults move the ranks' clocks, never the numerics:
// per-pair FIFO matching and rank-ordered reduction combines make the
// arithmetic schedule-independent, and this test (under -race via make
// verify/chaos) is the proof.
func TestChaosSoakNewtonBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a long test")
	}
	seeds := chaosSeeds(t)
	for _, nranks := range []int{2, 4, 8} {
		clean := runChaosNewton(t, nranks, nil)
		if len(clean) < 2 {
			t.Fatalf("%d ranks: degenerate history %v", nranks, clean)
		}
		for _, seed := range seeds {
			plan := faults.NewPlan(seed, faults.ProfileMixed)
			plan.StallLen = 2 * time.Millisecond // keep the soak quick; the regime, not the length, is the test
			chaos := runChaosNewton(t, nranks, plan)
			if len(chaos) != len(clean) {
				t.Fatalf("%d ranks seed %d: %d steps vs fault-free %d", nranks, seed, len(chaos), len(clean))
			}
			for i := range chaos {
				if chaos[i] != clean[i] {
					t.Fatalf("%d ranks seed %d step %d: residual %v vs fault-free %v (timing faults changed numerics)",
						nranks, seed, i, chaos[i], clean[i])
				}
			}
			var skew float64
			for _, s := range plan.SkewSeconds() {
				skew += s
			}
			if skew <= 0 {
				t.Errorf("%d ranks seed %d: plan injected no skew", nranks, seed)
			}
		}
	}
}

// TestNewtonStepRetrySucceeds: a step attempt failing with an
// SPMD-deterministic error must be retried in lockstep and succeed,
// recording the extra attempt in the step history.
func TestNewtonStepRetrySucceeds(t *testing.T) {
	const nranks = 2
	d, p, q0 := buildResidualProblem(t, 6, 5, 4, nranks)
	opts := soakNewtonOptions()
	opts.MaxSteps = 3
	opts.StepRetries = 1
	opts.BeforeStep = func(step, attempt int) error {
		if step == 1 && attempt == 0 {
			return fmt.Errorf("injected transient step failure")
		}
		return nil
	}
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		q := append([]float64(nil), q0...)
		res, err := NewtonSolve(c, d, p.Part, q, opts, nil)
		if err != nil {
			return err
		}
		if len(res.Steps) != 3 {
			return fmt.Errorf("completed %d steps, want 3", len(res.Steps))
		}
		if res.Steps[0].Attempts != 1 || res.Steps[1].Attempts != 2 || res.Steps[2].Attempts != 1 {
			return fmt.Errorf("attempt counts %d/%d/%d, want 1/2/1",
				res.Steps[0].Attempts, res.Steps[1].Attempts, res.Steps[2].Attempts)
		}
		return nil
	}, mpi.Options{WatchdogTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNewtonRetriesExhaustedAbortsGracefully: when a step keeps
// failing, the solve must return the partial result — the completed
// steps stay valid — along with the step's error, not panic or hang.
func TestNewtonRetriesExhaustedAbortsGracefully(t *testing.T) {
	const nranks = 2
	d, p, q0 := buildResidualProblem(t, 6, 5, 4, nranks)
	opts := soakNewtonOptions()
	opts.StepRetries = 1
	opts.BeforeStep = func(step, attempt int) error {
		if step == 1 {
			return fmt.Errorf("injected persistent step failure")
		}
		return nil
	}
	partialSteps := make([]int, nranks)
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		q := append([]float64(nil), q0...)
		res, err := NewtonSolve(c, d, p.Part, q, opts, nil)
		if err == nil {
			return fmt.Errorf("persistent failure did not abort the solve")
		}
		if !strings.Contains(err.Error(), "after 2 attempt(s)") {
			return fmt.Errorf("abort error does not show the attempts: %v", err)
		}
		if res == nil || res.InitialRnorm <= 0 {
			return fmt.Errorf("no partial result on graceful abort")
		}
		partialSteps[c.Rank()] = len(res.Steps)
		return nil
	}, mpi.Options{WatchdogTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for r, n := range partialSteps {
		if n != 1 {
			t.Errorf("rank %d kept %d completed steps in the partial result, want 1", r, n)
		}
	}
}

// TestNewtonUnderInjectedPanic: a seed-chosen rank panicking mid-solve
// must surface as a structured world error naming the rank — never a
// hung test — with the surviving ranks' blocked operations unwound.
func TestNewtonUnderInjectedPanic(t *testing.T) {
	const nranks = 4
	d, p, q0 := buildResidualProblem(t, 6, 5, 4, nranks)
	for seed := int64(1); seed <= 2; seed++ {
		plan := faults.NewPlan(seed, faults.ProfilePanic)
		err := mpi.Run(nranks, func(c *mpi.Comm) error {
			q := append([]float64(nil), q0...)
			_, err := NewtonSolve(c, d, p.Part, q, soakNewtonOptions(), nil)
			return err
		}, mpi.Options{Faults: plan, WatchdogTimeout: 60 * time.Second})
		var we *mpi.WorldError
		if !errors.As(err, &we) {
			t.Fatalf("seed %d: want *mpi.WorldError, got %v", seed, err)
		}
		if _, ok := we.PanicValue.(faults.InjectedPanic); !ok {
			t.Fatalf("seed %d: panic value %T, want faults.InjectedPanic", seed, we.PanicValue)
		}
	}
}

// TestNewtonNonParticipantTripsWatchdog: a rank that never joins the
// collective solve starves its peers in the first rendezvous; the
// watchdog must convert that hang into a structured report.
func TestNewtonNonParticipantTripsWatchdog(t *testing.T) {
	const nranks = 3
	d, p, q0 := buildResidualProblem(t, 6, 5, 4, nranks)
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		if c.Rank() == 2 {
			return nil // never shows up for the solve
		}
		q := append([]float64(nil), q0...)
		_, err := NewtonSolve(c, d, p.Part, q, soakNewtonOptions(), nil)
		return err
	}, mpi.Options{WatchdogTimeout: 300 * time.Millisecond})
	var we *mpi.WorldError
	if !errors.As(err, &we) {
		t.Fatalf("want *mpi.WorldError, got %v", err)
	}
	if !strings.Contains(we.Error(), "watchdog") {
		t.Fatalf("error does not name the watchdog: %v", we)
	}
}

// TestNegotiateHaloZeroNeighbors is the satellite-3 regression: a rank
// with no boundary neighbors must post no plan messages at all (the old
// protocol sprayed zero-length sends at every rank), and the need-count
// announcement must still route every non-empty list correctly.
func TestNegotiateHaloZeroNeighbors(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		var need map[int][]int32
		switch c.Rank() {
		case 0:
			need = map[int][]int32{1: {5, 7}}
		case 1:
			need = map[int][]int32{0: {2}}
		case 2:
			need = nil // disconnected component: needs nothing, posts nothing
		}
		asked, err := negotiateHalo(c, need)
		if err != nil {
			return err
		}
		switch c.Rank() {
		case 0:
			if len(asked) != 1 || len(asked[1]) != 1 || asked[1][0] != 2 {
				return fmt.Errorf("rank 0 asked = %v", asked)
			}
		case 1:
			if len(asked) != 1 || len(asked[0]) != 2 || asked[0][0] != 5 || asked[0][1] != 7 {
				return fmt.Errorf("rank 1 asked = %v", asked)
			}
		case 2:
			if len(asked) != 0 {
				return fmt.Errorf("rank 2 asked = %v, want none", asked)
			}
		}
		return nil
	}, mpi.Options{WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReceiveErrorLeavesNoSendInFlight: when a receive fails — here on a
// stray message with the other registry tag, which rank 1 sends first —
// the exchange reports the error, and every send it posted has still
// been waited: rank 0 absorbs the error and returns nil, so Run fails
// if it left a send in flight. One subtest per message protocol of
// halo.go: plan negotiation, the overlapped halo, the blocking one.
func TestReceiveErrorLeavesNoSendInFlight(t *testing.T) {
	exchanges := []struct {
		name  string
		stray mpi.Tag
		run   func(c *mpi.Comm) error
	}{
		{"negotiate", mpi.TagHalo, func(c *mpi.Comm) error {
			_, err := negotiateHalo(c, map[int][]int32{1 - c.Rank(): {int32(c.Rank())}})
			return err
		}},
		{"overlapped", mpi.TagPlan, func(c *mpi.Comm) error {
			h, x := strayHalo(c)
			if err := h.Start(nil, x); err != nil {
				return err
			}
			return h.Finish(nil, x)
		}},
		{"blocking", mpi.TagPlan, func(c *mpi.Comm) error {
			h, x := strayHalo(c)
			return h.Exchange(nil, x)
		}},
	}
	for _, ex := range exchanges {
		t.Run(ex.name, func(t *testing.T) {
			err := mpi.Run(2, func(c *mpi.Comm) error {
				if c.Rank() == 1 {
					c.Send(0, ex.stray, []float64{-1})
					return ex.run(c)
				}
				if err := ex.run(c); err == nil || !strings.Contains(err.Error(), "expected tag") {
					return fmt.Errorf("rank 0 exchange returned %v, want the tag mismatch", err)
				}
				return nil
			}, mpi.Options{WatchdogTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// strayHalo is a two-rank halo plan exchanging one value each way.
func strayHalo(c *mpi.Comm) (*Halo, []float64) {
	peer := map[int][]int32{1 - c.Rank(): {0}}
	return newHalo(c, 1, mpi.TagHalo, peer, peer), []float64{float64(c.Rank())}
}

// TestNegotiateHaloRejectsInvalidPeer: a need-list keyed by an invalid
// rank must fail before any communication (every rank fails locally, so
// no peer is left blocked mid-handshake).
func TestNegotiateHaloRejectsInvalidPeer(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := negotiateHalo(c, map[int][]int32{c.Rank(): {1}}); err == nil {
			return fmt.Errorf("self-need accepted")
		}
		if _, err := negotiateHalo(c, map[int][]int32{7: {1}}); err == nil {
			return fmt.Errorf("out-of-range peer accepted")
		}
		return nil
	}, mpi.Options{WatchdogTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}
