package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"petscfun3d/internal/dist"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/prof"
)

// altpathConfig is the benchmark's altpath configuration at test size:
// the other branch of every switch (b = 5, ILU(1), float32 factors, 4
// overlapping subdomains, cgs, assembled operator, 2 threads).
func altpathConfig() Config {
	cfg := DefaultConfig()
	cfg.TargetVertices = 3000
	cfg.System = "compressible"
	cfg.FillLevel = 1
	cfg.SinglePrecision = true
	cfg.Ranks = 4
	cfg.Overlap = 1
	cfg.Newton.Krylov.Orthogonalization = "cgs"
	cfg.Newton.AssembledOperator = true
	cfg.Threads = 2
	return cfg
}

// perStepAllocs returns the bytes and mallocs of one additional Newton
// step in the steady state: a solve of 6 steps minus a solve of 3, per
// step, after one warm-up solve. Both solves repeat the same first three
// steps, so set-up and the first steps' one-time allocations cancel.
func perStepAllocs(t *testing.T, solve func(maxSteps int)) (bytes, mallocs float64) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("allocation gate: the race detector allocates on its own")
	}
	// A collection empties the sync.Pools the flux sweeps draw from, and
	// the refill would be charged to whichever solve it lands in.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(steps int) (uint64, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		solve(steps)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	solve(3)
	b3, m3 := measure(3)
	b6, m6 := measure(6)
	return (float64(b6) - float64(b3)) / 3, (float64(m6) - float64(m3)) / 3
}

// TestNewtonStepAllocatesNothing is the whole-step allocation gate: past
// its first steps a sequential solve allocates per Newton step only the
// step's closures and history record — on the default path and on the
// altpath configuration.
func TestNewtonStepAllocatesNothing(t *testing.T) {
	def := DefaultConfig()
	def.TargetVertices = 3000
	for name, cfg := range map[string]Config{"default": def, "altpath": altpathConfig()} {
		bytes, mallocs := perStepAllocs(t, func(maxSteps int) {
			cfg := cfg
			cfg.Newton.MaxSteps = maxSteps
			res, err := RunSequential(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Newton.Steps) != maxSteps {
				t.Fatalf("%s: %d steps, want %d", name, len(res.Newton.Steps), maxSteps)
			}
		})
		t.Logf("%s: %.0f B and %.1f mallocs per additional Newton step", name, bytes, mallocs)
		if bytes > 4096 || mallocs > 16 {
			t.Errorf("%s: one more Newton step allocates %.0f B in %.1f mallocs, want at most 4096 B in 16", name, bytes, mallocs)
		}
	}
}

// TestDistributedNewtonStepAllocatesItsMessages: on 2 ranks a step past
// the first allocates what the fabric does per message and 4 KB. A
// message costs mpi.ISend's copy of its payload — the wire bytes the
// ranks' scatter_wait spans charge from the Halo plan, each payload
// counted once, plus up to 12.5 % of allocator size-class rounding — and
// an envelope: the two request records and their queue slots, ≈ 540 B,
// bounded here by 1 KB because the queues grow with how far a sender
// runs ahead. Nothing may grow with the vector length: re-allocating
// the step's right-hand side and correction alone would break the
// bound, the Krylov workspace many times over.
func TestDistributedNewtonStepAllocatesItsMessages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetVertices = 3000
	cfg.Ranks = 2
	var wire, msgs [2]int64 // of the last 3-step and the last 6-step solve
	bytes, mallocs := perStepAllocs(t, func(maxSteps int) {
		p, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		opts := dist.DefaultNewtonOptions()
		opts.MaxSteps = maxSteps
		profs := []*prof.Profiler{prof.New(), prof.New()}
		err = mpi.Run(2, func(c *mpi.Comm) error {
			profs[c.Rank()].Enable()
			res, err := dist.NewtonSolve(c, p.Disc, p.Part.Part, p.Disc.FreestreamVector(), opts, profs[c.Rank()])
			if err == nil && len(res.Steps) != maxSteps {
				t.Errorf("%d steps, want %d", len(res.Steps), maxSteps)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		i := maxSteps / 6
		wire[i], msgs[i] = 0, 0
		for _, pr := range profs {
			for _, st := range pr.Report(0).Phases {
				if st.Phase == prof.PhaseScatterWait.String() {
					// Each rank's span charges both directions, so every
					// payload is charged twice; with one peer, each wait
					// completes one message sent by this rank.
					wire[i] += st.Bytes / 2
					msgs[i] += st.Calls
				}
			}
		}
	})
	payload, messages := float64(wire[1]-wire[0])/3, float64(msgs[1]-msgs[0])/3
	bound := 1.125*payload + 1024*messages + 4096
	t.Logf("2 ranks: %.0f B and %.1f mallocs per additional Newton step; %.0f messages carrying %.0f B, bound %.0f B",
		bytes, mallocs, messages, payload, bound)
	if bytes > bound {
		t.Errorf("one more Newton step on 2 ranks allocates %.0f B, want at most %.0f B (its messages + 4 KB)", bytes, bound)
	}
}
