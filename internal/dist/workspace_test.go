package dist

import (
	"fmt"
	"math"
	"testing"
	"time"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mpi"
)

// TestGMRESReusesMatrixWorkspaceInvisibly: a Matrix keeps its Krylov
// workspace from one GMRES call to the next; the second, third and
// fourth solves on it — another right-hand side, a shorter restart, the
// first again — are bitwise the same solves on a Matrix that has never
// solved anything. 1 and 2 ranks.
func TestGMRESReusesMatrixWorkspaceInvisibly(t *testing.T) {
	const b = 4
	for _, nranks := range []int{1, 2} {
		pr := buildTestProblem(t, 6, 5, 4, b, nranks)
		err := mpi.Run(nranks, func(c *mpi.Comm) error {
			used, err := NewMatrix(c, pr.a, pr.part.Part)
			if err != nil {
				return err
			}
			usedPC, err := used.BlockJacobi(ilu.Options{})
			if err != nil {
				return err
			}
			n := used.LocalN()
			lb, x, want := make([]float64, n), make([]float64, n), make([]float64, n)
			for i, opts := range []GMRESOptions{
				{Restart: 12, MaxIters: 60, RelTol: 1e-8},
				{Restart: 12, MaxIters: 60, RelTol: 1e-8},
				{Restart: 4, MaxIters: 60, RelTol: 1e-8},
				{Restart: 12, MaxIters: 60, RelTol: 1e-8},
			} {
				for li, gr := range used.Owned {
					for k := 0; k < b; k++ {
						lb[li*b+k] = pr.rhs[int(gr)*b+k] * math.Cos(float64(i*(int(gr)+k)))
					}
				}
				fresh, err := NewMatrix(c, pr.a, pr.part.Part)
				if err != nil {
					return err
				}
				freshPC, err := fresh.BlockJacobi(ilu.Options{})
				if err != nil {
					return err
				}
				clear(x)
				clear(want)
				st, err := GMRES(used, usedPC, lb, x, opts)
				if err != nil {
					return err
				}
				wantSt, err := GMRES(fresh, freshPC, lb, want, opts)
				if err != nil {
					return err
				}
				if st != wantSt {
					return fmt.Errorf("solve %d on a used Matrix: %+v, on a fresh one %+v", i, st, wantSt)
				}
				if err := bitsDiffer(x, want); err != nil {
					return fmt.Errorf("solve %d on a used Matrix: %v", i, err)
				}
			}
			return nil
		}, mpi.Options{WatchdogTimeout: 60 * time.Second})
		if err != nil {
			t.Fatalf("%d ranks: %v", nranks, err)
		}
	}
}

// TestNewtonRetryMidSolveIsInvisible: a step whose first attempt is
// vetoed drops the rank's Matrix — workspace, right-hand side and
// correction buffers with it — in the middle of a solve that has
// already used them, and continues on a rebuilt one. Every step record
// and every bit of the state match an undisturbed solve. 1 and 2 ranks.
func TestNewtonRetryMidSolveIsInvisible(t *testing.T) {
	for _, nranks := range []int{1, 2} {
		d, p, q0 := buildResidualProblem(t, 6, 5, 4, nranks)
		run := func(veto bool) ([][]float64, [][]NewtonStep) {
			opts := soakNewtonOptions()
			opts.StepRetries = 1
			if veto {
				opts.BeforeStep = func(step, attempt int) error {
					if step == 2 && attempt == 0 {
						return fmt.Errorf("injected veto of step 2")
					}
					return nil
				}
			}
			states, steps := make([][]float64, nranks), make([][]NewtonStep, nranks)
			err := mpi.Run(nranks, func(c *mpi.Comm) error {
				q := append([]float64(nil), q0...)
				res, err := NewtonSolve(c, d, p.Part, q, opts, nil)
				if err != nil {
					return err
				}
				states[c.Rank()], steps[c.Rank()] = q, res.Steps
				return nil
			}, mpi.Options{WatchdogTimeout: 60 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			return states, steps
		}
		states, steps := run(true)
		wantStates, wantSteps := run(false)
		for r := range steps {
			if len(steps[r]) != len(wantSteps[r]) {
				t.Fatalf("%d ranks, rank %d: %d steps, undisturbed %d", nranks, r, len(steps[r]), len(wantSteps[r]))
			}
			for i, s := range steps[r] {
				wantAttempts := 1
				if i == 2 {
					wantAttempts = 2
				}
				if s.Attempts != wantAttempts {
					t.Fatalf("%d ranks, rank %d, step %d: %d attempts, want %d", nranks, r, i, s.Attempts, wantAttempts)
				}
				s.Attempts = wantSteps[r][i].Attempts
				if s != wantSteps[r][i] {
					t.Fatalf("%d ranks, rank %d, step %d: %+v, undisturbed %+v", nranks, r, i, s, wantSteps[r][i])
				}
			}
			if err := bitsDiffer(states[r], wantStates[r]); err != nil {
				t.Fatalf("%d ranks, rank %d: state after the retried solve: %v", nranks, r, err)
			}
		}
	}
}
