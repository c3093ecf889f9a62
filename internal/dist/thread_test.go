package dist

import (
	"fmt"
	"testing"
	"time"

	"petscfun3d/internal/faults"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
)

// TestMatVecThreadedBitwiseIdentical: the striped rank-local SpMV
// matches the sequential rank-local SpMV bit for bit at every worker
// count, including the overlapped interior/boundary split, and charges
// the same spans: the workers open none and send nothing.
func TestMatVecThreadedBitwiseIdentical(t *testing.T) {
	pr := buildTestProblem(t, 7, 6, 5, 4, 4)
	const nranks = 4
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		lx := make([]float64, dm.LocalN())
		for li := range lx {
			lx[li] = float64((li%17)-8) / 3.0
		}
		// spans profiles one product: each phase's calls, flops and bytes.
		spans := func(y []float64) (string, error) {
			dm.Prof = prof.New()
			dm.Prof.Enable()
			err := dm.MulVec(lx, y)
			var phases []string
			for _, st := range dm.Prof.Report(0).Phases {
				phases = append(phases, fmt.Sprintf("%s %d %d %d", st.Phase, st.Calls, st.Flops, st.Bytes))
			}
			dm.Prof = nil
			return fmt.Sprint(phases), err
		}
		want := make([]float64, dm.LocalN())
		wantSpans, err := spans(want)
		if err != nil {
			return err
		}
		for _, nw := range []int{2, 4, 8} {
			p := par.New(nw)
			dm.SetPool(p)
			got := make([]float64, dm.LocalN())
			for rep := 0; rep < 2; rep++ {
				gotSpans, err := spans(got)
				if err != nil {
					p.Close()
					return err
				}
				if gotSpans != wantSpans {
					t.Errorf("rank %d nw=%d rep=%d: spans %s, want %s", c.Rank(), nw, rep, gotSpans, wantSpans)
					p.Close()
					return nil
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("rank %d nw=%d rep=%d: y[%d]=%x, want %x", c.Rank(), nw, rep, i, got[i], want[i])
						p.Close()
						return nil
					}
				}
			}
			dm.SetPool(nil)
			p.Close()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runHybridNewton solves the distributed Newton problem at nranks with
// threads workers per rank (under an optional fault plan) and returns
// the residual history, asserting every rank observed the same one.
func runHybridNewton(t *testing.T, nranks, threads int, plan *faults.Plan) []float64 {
	t.Helper()
	d, p, q0 := buildResidualProblem(t, 6, 5, 4, nranks)
	opts := soakNewtonOptions()
	opts.Threads = threads
	hists := make([][]float64, nranks)
	mopts := mpi.Options{WatchdogTimeout: 60 * time.Second, Faults: plan}
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		q := append([]float64(nil), q0...)
		res, err := NewtonSolve(c, d, p.Part, q, opts, nil)
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
		for i := range hists[r] {
			if hists[r][i] != hists[0][i] {
				t.Fatalf("rank %d step %d: %v vs rank 0's %v (ranks disagree)", r, i, hists[r][i], hists[0][i])
			}
		}
	}
	return hists[0]
}

// TestHybridThreadsBitwiseIdentical: the hybrid ranks×threads Newton
// solve produces a residual history bitwise identical to the
// threads=1 run at every thread count — level-scheduled solves,
// striped SpMV, and fixed-shape reductions change the schedule, never
// the arithmetic.
func TestHybridThreadsBitwiseIdentical(t *testing.T) {
	for _, nranks := range []int{2, 4} {
		clean := runHybridNewton(t, nranks, 1, nil)
		if len(clean) < 2 {
			t.Fatalf("%d ranks: degenerate history %v", nranks, clean)
		}
		for _, threads := range []int{2, 4} {
			hist := runHybridNewton(t, nranks, threads, nil)
			if len(hist) != len(clean) {
				t.Fatalf("%d ranks %d threads: %d steps vs %d", nranks, threads, len(hist), len(clean))
			}
			for i := range hist {
				if hist[i] != clean[i] {
					t.Fatalf("%d ranks %d threads step %d: residual %v vs threads=1 %v",
						nranks, threads, i, hist[i], clean[i])
				}
			}
		}
	}
}

// TestHybridChaosSoakBitwise: hybrid ranks×threads under injected
// timing faults still reproduces the fault-free sequential residual
// history bit for bit — the worker pools add intra-rank concurrency on
// top of the chaos fabric's inter-rank skew, and neither may touch the
// numerics. The solve's inner GMRES routes every orthogonalization
// through the fused MDot/MAxpy kernels and the batched vector
// AllReduce, so this soak exercises the single-round reduction under
// stalls, jitter, and reordering at every seed.
func TestHybridChaosSoakBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a long test")
	}
	const nranks = 4
	clean := runHybridNewton(t, nranks, 1, nil)
	for _, seed := range chaosSeeds {
		plan := faults.NewPlan(seed, faults.ProfileMixed)
		plan.StallLen = 2 * time.Millisecond
		hist := runHybridNewton(t, nranks, 4, plan)
		if len(hist) != len(clean) {
			t.Fatalf("seed %d: %d steps vs fault-free %d", seed, len(hist), len(clean))
		}
		for i := range hist {
			if hist[i] != clean[i] {
				t.Fatalf("seed %d step %d: residual %v vs fault-free threads=1 %v (threading or faults changed numerics)",
					seed, i, hist[i], clean[i])
			}
		}
	}
}
