package newton

import (
	"fmt"
	"math"
)

// System is what the ψNK loop needs of a problem: everything that knows
// how the residual is evaluated and how the Newton correction is solved
// — one address space or ranks, matrix-free or assembled — sits behind
// these closures, so the loop is the same code at every rank count.
type System struct {
	// Residual evaluates r(q) and returns ‖r‖ (on ranks: globally
	// reduced, so every rank takes the same decisions).
	Residual func(q, r []float64) (norm float64, err error)
	// Correct refreshes the operator and preconditioner at c.Q and solves
	// J·c.DQ = c.RHS, returning the linear iterations spent.
	Correct func(c *Correction) (linearIts int, err error)
	// Fatal, when non-nil, names the errors no retry can cure.
	Fatal func(error) bool
	// Accepted, when non-nil, sees each accepted step's record and may
	// fill the fields the loop does not know (FluxEvals, Order). Returning
	// true makes the loop re-evaluate r(q) before the next step — all a
	// change of discretization (order continuation) needs.
	Accepted func(st *Step, reduction float64) bool
}

// Correction is one step attempt as Correct sees it. The buffers are
// the loop's, lent for the call: Q and R = r(Q) are read-only, RHS = −R,
// DQ arrives zeroed and leaves as the correction, and Trial is free
// scratch (the matrix-free operator's q+εv) that the loop overwrites
// with the trial state afterwards. Attempt > 0 is the retry of a failed
// attempt: trust nothing that attempt built.
type Correction struct {
	Step, Attempt        int
	CFL                  float64
	Q, R, RHS, DQ, Trial []float64
}

// Iterate advances q (in place) to steady state: the one pseudo-
// transient Newton loop. Each step grows the CFL number by the SER law,
// attempts the correction and its backtracking line search under
// bounded retry, and accepts — q changes only then. On a graceful abort
// (retries exhausted, a Fatal error, divergence) the partial Result —
// the steps completed so far — is returned alongside the error.
func Iterate(sys System, q []float64, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := len(q)
	c := &Correction{Q: q, R: make([]float64, n), RHS: make([]float64, n), DQ: make([]float64, n), Trial: make([]float64, n)}
	res := &Result{}
	rnorm, err := sys.Residual(q, c.R)
	if err != nil {
		return res, err
	}
	r0 := rnorm
	res.InitialRnorm, res.FinalRnorm = r0, r0
	if r0 == 0 {
		res.Converged = true
		return res, nil
	}
	for c.Step = 0; c.Step < opts.MaxSteps; c.Step++ {
		// SER: grow the CFL with residual reduction.
		c.CFL = min(opts.CFL0*math.Pow(r0/rnorm, opts.SERExponent), opts.CFLMax)
		// The fallible section — the correction of J·DQ = −R, then the
		// line search's residual evaluations — runs under bounded retry;
		// every attempt starts from the accepted q and R, which no
		// attempt writes.
		var its int
		var newNorm float64
		for c.Attempt = 0; ; c.Attempt++ {
			for i := range c.RHS {
				c.RHS[i] = -c.R[i]
				c.DQ[i] = 0
			}
			its, err = sys.Correct(c)
			// Backtracking on the residual norm: λ halved while ‖f‖
			// grows, at most five times.
			lambda := 1.0
			for try := 0; err == nil; try++ {
				for i := range c.Trial {
					c.Trial[i] = q[i] + lambda*c.DQ[i]
				}
				newNorm, err = sys.Residual(c.Trial, c.RHS)
				if !opts.LineSearch || newNorm <= rnorm*(1+1e-10) || try >= 5 {
					break
				}
				lambda *= 0.5
			}
			if err == nil {
				break
			}
			if c.Attempt >= opts.StepRetries || (sys.Fatal != nil && sys.Fatal(err)) {
				return res, fmt.Errorf("newton: step %d failed after %d attempt(s): %w", c.Step, c.Attempt+1, err)
			}
		}
		// Accept: RHS holds the trial state's residual.
		copy(q, c.Trial)
		copy(c.R, c.RHS)
		rnorm = newNorm
		res.Steps = append(res.Steps, Step{Index: c.Step, Rnorm: rnorm, CFL: c.CFL, LinearIts: its, Attempts: c.Attempt + 1})
		reevaluate := sys.Accepted != nil && sys.Accepted(&res.Steps[c.Step], rnorm/r0)
		res.TotalLinearIts += its
		res.FinalRnorm = rnorm
		if rnorm/r0 <= opts.RelTol {
			res.Converged = true
			break
		}
		if math.IsNaN(rnorm) || math.IsInf(rnorm, 0) {
			return res, fmt.Errorf("newton: diverged at step %d (residual %g)", c.Step, rnorm)
		}
		if reevaluate && c.Step+1 < opts.MaxSteps {
			if rnorm, err = sys.Residual(q, c.R); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}
