package newton

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/sparse"
)

// flakyPC wraps the ILU factory, failing selected build calls, to
// exercise the bounded step retry without touching the numerics of the
// attempts that do run.
func flakyPC(failCall func(n int) bool) PCFactory {
	inner := iluPC(0)
	n := 0
	return func(a *sparse.BCSR) (krylov.Preconditioner, error) {
		n++
		if failCall(n) {
			return nil, fmt.Errorf("injected preconditioner failure (build %d)", n)
		}
		return inner(a)
	}
}

// TestStepRetryRecovers: a transient preconditioner failure must be
// retried within the step (refreshing from a clean assembly) and leave
// the solve's convergence untouched; OnStepError observes the attempt.
func TestStepRetryRecovers(t *testing.T) {
	opts := DefaultOptions()
	opts.RelTol = 1e-6
	opts.MaxSteps = 60
	opts.StepRetries = 1
	s, q := buildSolver(t, 6, 5, 4, euler.NewIncompressible(), opts)
	s.PC = flakyPC(func(n int) bool { return n == 2 }) // step 1's first build
	var seen []string
	s.Hooks = &Hooks{OnStepError: func(step, attempt int, err error) {
		seen = append(seen, fmt.Sprintf("step=%d attempt=%d", step, attempt))
	}}
	res, err := s.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("retry run did not converge (final %g)", res.FinalRnorm)
	}
	if len(seen) != 1 || seen[0] != "step=1 attempt=0" {
		t.Fatalf("OnStepError observed %v, want one failure at step 1 attempt 0", seen)
	}
}

// TestStepRetriesExhaustedReturnPartialResult: a persistent failure
// must abort gracefully — the completed steps stay in the Result next
// to the error, and the error reports the attempts consumed.
func TestStepRetriesExhaustedReturnPartialResult(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSteps = 60
	opts.StepRetries = 1
	s, q := buildSolver(t, 6, 5, 4, euler.NewIncompressible(), opts)
	s.PC = flakyPC(func(n int) bool { return n >= 3 }) // steps 0 and 1 work, step 2 never does
	res, err := s.Solve(q)
	if err == nil {
		t.Fatal("persistent failure did not abort the solve")
	}
	if !strings.Contains(err.Error(), "after 2 attempt(s)") {
		t.Fatalf("abort error does not report the attempts: %v", err)
	}
	if res == nil {
		t.Fatal("no partial result on graceful abort")
	}
	if len(res.Steps) != 2 {
		t.Fatalf("partial result kept %d steps, want the 2 completed ones", len(res.Steps))
	}
	if res.FinalRnorm <= 0 || res.InitialRnorm <= 0 {
		t.Fatalf("partial result lost its norms: initial %g final %g", res.InitialRnorm, res.FinalRnorm)
	}
}

// TestNonFiniteLinearSolveIsAFailedStep: an operator that turns NaN from
// step 2 on makes GMRES stop with its structured error at the first
// iteration; the Newton loop treats that as a failed attempt, retries
// once, and aborts with the two completed steps and a state no NaN
// correction ever touched — where it used to add NaN into q and notice
// only in the line search.
func TestNonFiniteLinearSolveIsAFailedStep(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSteps = 60
	opts.StepRetries = 1
	s, q := buildSolver(t, 6, 5, 4, euler.NewIncompressible(), opts)
	solves := 0
	s.Hooks = &Hooks{WrapOperator: func(op krylov.Operator) krylov.Operator {
		solves++ // one linear solve per step attempt
		poisoned, applies := solves >= 3, 0
		return krylov.OperatorFunc(func(x, y []float64) {
			op.Apply(x, y)
			if applies++; poisoned && applies == 2 {
				y[0] = math.NaN()
			}
		})
	}}
	res, err := s.Solve(q)
	var nf *krylov.NonFiniteError
	if !errors.As(err, &nf) || nf.Iteration != 1 {
		t.Fatalf("error %v, want a *krylov.NonFiniteError at iteration 1", err)
	}
	if !strings.Contains(err.Error(), "step 2 failed after 2 attempt(s)") {
		t.Fatalf("abort error does not name the step and attempts: %v", err)
	}
	if res == nil || len(res.Steps) != 2 {
		t.Fatalf("partial result %+v, want the 2 completed steps", res)
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("q[%d] = %g after the aborted solve", i, v)
		}
	}
}
