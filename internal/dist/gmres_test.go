package dist

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/par"
)

// gridOutcome is one solve of the determinism grid: the solution in
// global ordering, the solver's statistics, and the Sum rounds the
// harness counted (0 on the sequential path, which has no Sum).
type gridOutcome struct {
	x      []float64
	st     krylov.Stats
	rounds int
}

func (o gridOutcome) sameBits(ref gridOutcome) error {
	if o.st != ref.st {
		return fmt.Errorf("stats %+v, want %+v", o.st, ref.st)
	}
	return bitsDiffer(o.x, ref.x)
}

// gridSolve runs one cell of the grid on the wing block matrix with
// block-Jacobi ILU(0): through krylov.Solve when nranks is 0, else
// through (*krylov.Workspace).SolveOn on nranks ranks of the message-passing fabric,
// each with a pool of workers workers (0: none). It fails the test if
// the ranks disagree on any statistic.
func gridSolve(t *testing.T, nranks, workers int, opts krylov.Options) gridOutcome {
	t.Helper()
	const b = 4
	pr := buildTestProblem(t, 6, 5, 4, b, max(nranks, 1))
	out := gridOutcome{x: make([]float64, pr.a.N())}
	newPool := func() *par.Pool {
		if workers == 0 {
			return nil
		}
		return par.New(workers)
	}
	if nranks == 0 {
		pool := newPool()
		defer pool.Close()
		f, err := ilu.Factor(pr.a, ilu.Options{Level: 0})
		if err != nil {
			t.Fatal(err)
		}
		opts.Pool = pool
		out.st, err = krylov.Solve(krylov.OperatorFunc(pr.a.MulVec), krylov.PrecondFunc(f.Solve), pr.rhs, out.x, opts)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	stats := make([]krylov.Stats, nranks)
	rounds := make([]int, nranks)
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		pool := newPool()
		defer pool.Close()
		dm.SetPool(pool)
		pc, err := dm.BlockJacobi(ilu.Options{Level: 0})
		if err != nil {
			return err
		}
		lb := make([]float64, dm.LocalN())
		lx := make([]float64, dm.LocalN())
		for li, gr := range dm.Owned {
			copy(lb[li*b:(li+1)*b], pr.rhs[int(gr)*b:(int(gr)+1)*b])
		}
		sum := func(buf []float64) {
			rounds[c.Rank()]++
			c.AllReduceSumVec(buf, buf)
		}
		o := opts
		o.Pool = pool
		st, err := new(krylov.Workspace).SolveOn(krylov.Space{Sum: sum}, dm.MulVec, pc, lb, lx, o)
		if err != nil {
			return err
		}
		stats[c.Rank()] = st
		if o.Orthogonalization == "cgs1" {
			// dist.GMRES is this call and nothing else.
			gx := make([]float64, dm.LocalN())
			gst, err := GMRES(dm, pc, lb, gx, GMRESOptions{Restart: o.Restart, MaxIters: o.MaxIters, RelTol: o.RelTol})
			if err != nil {
				return err
			}
			if err := bitsDiffer(gx, lx); err != nil {
				return fmt.Errorf("GMRES vs SolveOn: %v", err)
			}
			if gst.Iterations != st.Iterations || gst.Restarts != st.Restarts || gst.Converged != st.Converged ||
				gst.ResidualNorm != st.ResidualNorm || gst.Reductions != rounds[c.Rank()] {
				return fmt.Errorf("GMRES stats %+v vs SolveOn %+v with %d rounds", gst, st, rounds[c.Rank()])
			}
		}
		// Owned rows are disjoint across ranks: no lock needed.
		for li, gr := range dm.Owned {
			copy(out.x[int(gr)*b:(int(gr)+1)*b], lx[li*b:(li+1)*b])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < nranks; r++ {
		if stats[r] != stats[0] || rounds[r] != rounds[0] {
			t.Fatalf("rank %d: %+v in %d rounds, rank 0: %+v in %d", r, stats[r], rounds[r], stats[0], rounds[0])
		}
	}
	out.st, out.rounds = stats[0], rounds[0]
	return out
}

// orthoRounds returns the orthogonalization rounds a solve of the given
// shape pays at the per-iteration rate rate(j) for inner step j.
func orthoRounds(st krylov.Stats, restart int, rate func(j int) int) int {
	rounds, left := 0, st.Iterations
	for c := 0; c <= st.Restarts; c++ {
		for j := 0; j < restart && left > 0; j++ {
			rounds += rate(j)
			left--
		}
	}
	return rounds
}

// TestGMRESDeterminismGrid is the one determinism grid of the one
// GMRES: mechanisms × {sequential, 1, 2, 4 ranks} × pool workers
// {none, 1, 2, 4}. Within a mechanism, one rank through the fabric is
// the sequential solve bit for bit (solution and every statistic), every
// worker count is the no-pool solve bit for bit at each rank count, all
// rank counts reach the same solution to solver tolerance, and the
// synchronizing rounds per inner step j are j+2 (mgs), 2 (cgs), 2 plus 2
// per reorthogonalization (cgs2), 1 (cgs1) — counted both by the solver
// and by the harness's Sum.
func TestGMRESDeterminismGrid(t *testing.T) {
	const restart = 3
	for _, mech := range krylov.Orthogonalizations {
		opts := krylov.Options{Restart: restart, MaxIters: 200, RelTol: 1e-11, Orthogonalization: mech}
		var seq gridOutcome
		for _, nranks := range []int{0, 1, 2, 4} {
			name := fmt.Sprintf("%s ranks=%d", mech, nranks)
			base := gridSolve(t, nranks, 0, opts)
			if !base.st.Converged || base.st.Restarts == 0 {
				t.Fatalf("%s: want a converged solve with restarts, got %+v", name, base.st)
			}
			for _, workers := range []int{1, 2, 4} {
				if err := gridSolve(t, nranks, workers, opts).sameBits(base); err != nil {
					t.Errorf("%s workers=%d vs no pool: %v", name, workers, err)
				}
			}
			switch nranks {
			case 0:
				seq = base
			case 1:
				if err := base.sameBits(seq); err != nil {
					t.Errorf("%s vs sequential: %v", name, err)
				}
			default:
				for i := range seq.x {
					if d := math.Abs(base.x[i] - seq.x[i]); d > 1e-5 {
						t.Fatalf("%s: x[%d] differs from sequential by %g", name, i, d)
					}
				}
			}
			st := base.st
			switch mech {
			case "mgs":
				if want := orthoRounds(st, restart, func(j int) int { return j + 2 }); st.Reductions != want {
					t.Errorf("%s: %d rounds, want %d (j+2 per step)", name, st.Reductions, want)
				}
			case "cgs":
				if st.Reductions != 2*st.Iterations {
					t.Errorf("%s: %d rounds over %d iterations, want 2 each", name, st.Reductions, st.Iterations)
				}
			case "cgs2":
				if st.Reductions < 2*st.Iterations || st.Reductions > 4*st.Iterations || st.Reductions%2 != 0 {
					t.Errorf("%s: %d rounds over %d iterations, want 2 each plus 2 per reorthogonalization", name, st.Reductions, st.Iterations)
				}
			case "cgs1":
				if st.Reductions != st.Iterations {
					t.Errorf("%s: %d rounds over %d iterations, want 1 each", name, st.Reductions, st.Iterations)
				}
			}
			if want := st.Reductions + 1 + st.Restarts; nranks > 0 && base.rounds != want {
				t.Errorf("%s: Sum ran %d times, want %d (orthogonalization rounds + 1 + restarts)", name, base.rounds, want)
			}
		}
	}
}

// TestGMRESNonFiniteSameErrorOnEveryRank: rank 0's operator emits a NaN
// at its fifth apply — with Restart 2 the first step of the second cycle
// (apply 1 is the initial residual, 2-3 the first cycle, 4 the restart
// residual). The NaN reaches every rank through the reduced norm, so
// both ranks stop at iteration 3 with the same structured error — no
// hang — and both still hold the first cycle's finite, nonzero x.
func TestGMRESNonFiniteSameErrorOnEveryRank(t *testing.T) {
	const b, nranks, poisoned, wantIt = 4, 2, 5, 3
	pr := buildTestProblem(t, 6, 5, 4, b, nranks)
	errs := make([]error, nranks)
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		applies := 0
		apply := func(x, y []float64) error {
			if err := dm.MulVec(x, y); err != nil {
				return err
			}
			if applies++; applies == poisoned && c.Rank() == 0 {
				y[0] = math.NaN()
			}
			return nil
		}
		lb := make([]float64, dm.LocalN())
		lx := make([]float64, dm.LocalN())
		for li, gr := range dm.Owned {
			copy(lb[li*b:(li+1)*b], pr.rhs[int(gr)*b:(int(gr)+1)*b])
		}
		sum := func(buf []float64) { c.AllReduceSumVec(buf, buf) }
		_, errs[c.Rank()] = new(krylov.Workspace).SolveOn(krylov.Space{Sum: sum}, apply, nil, lb, lx,
			krylov.Options{Restart: 2, MaxIters: 50, RelTol: 1e-12, Orthogonalization: "cgs1"})
		var moved bool
		for i, v := range lx {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("rank %d: x[%d] = %g after the failed solve", c.Rank(), i, v)
			}
			moved = moved || v != 0
		}
		if !moved {
			return fmt.Errorf("rank %d: x lost the completed cycle's update", c.Rank())
		}
		return nil
	}, mpi.Options{WatchdogTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		var nf *krylov.NonFiniteError
		if !errors.As(e, &nf) {
			t.Fatalf("rank %d: error %v, want a *krylov.NonFiniteError", r, e)
		}
		if nf.Iteration != wantIt {
			t.Errorf("rank %d: stopped at iteration %d, want %d", r, nf.Iteration, wantIt)
		}
		if e.Error() != errs[0].Error() {
			t.Errorf("rank %d: %q, rank 0: %q", r, e, errs[0])
		}
	}
}
