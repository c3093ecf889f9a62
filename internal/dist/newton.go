package dist

import (
	"errors"
	"fmt"
	"math"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// NewtonOptions configures the distributed ψNK solve. Every decision a
// step takes (CFL growth, line-search acceptance, retry) derives from
// globally reduced quantities, so all ranks move in lockstep.
type NewtonOptions struct {
	// CFL0, SERExponent, CFLMax drive the SER pseudo-timestep law
	// CFL_l = CFL0 (||f0||/||f_{l-1}||)^p, capped at CFLMax.
	CFL0        float64
	SERExponent float64
	CFLMax      float64
	// MaxSteps bounds the pseudo-timesteps; RelTol is the required
	// residual reduction ||f||/||f0||.
	MaxSteps int
	RelTol   float64
	// Krylov configures the inner distributed GMRES solves; ILU the
	// block Jacobi subdomain factorization.
	Krylov GMRESOptions
	ILU    ilu.Options
	// Threads is the node-level worker count per rank (hybrid
	// ranks×threads). Every threaded kernel is bitwise identical to
	// sequential, so the residual history does not depend on it. 0 or 1
	// runs each rank sequentially.
	Threads int
	// LineSearch enables backtracking on residual increase (the λ
	// decisions reduce globally, so every rank halves together).
	LineSearch bool
	// StepRetries bounds how many times one failed step is re-attempted
	// before the solve aborts gracefully with the partial result. A
	// failure that is the world's cancellation (mpi.ErrAborted — the
	// watchdog fired, a peer died) is never retried: the fabric is gone.
	// Other failures are SPMD-deterministic — every rank sees the same
	// error at the same point — so the ranks retry in lockstep.
	StepRetries int
	// BeforeStep, when non-nil, fires at the start of every step
	// attempt; a non-nil return fails the attempt before it touches the
	// fabric. It must behave identically on every rank. The chaos tests
	// use it to exercise the bounded-retry path deterministically.
	BeforeStep func(step, attempt int) error
}

// DefaultNewtonOptions converges the first-order wing problem robustly
// at test sizes.
func DefaultNewtonOptions() NewtonOptions {
	return NewtonOptions{
		CFL0:        10,
		SERExponent: 1.0,
		CFLMax:      1e5,
		MaxSteps:    30,
		RelTol:      1e-8,
		Krylov:      GMRESOptions{Restart: 30, MaxIters: 200, RelTol: 1e-3},
		ILU:         ilu.Options{Level: 0},
		LineSearch:  true,
		StepRetries: 1,
	}
}

// NewtonStep records one pseudo-timestep of the distributed solve. The
// Rnorm sequence is the solve's residual history — the quantity the
// chaos soak asserts is bitwise identical under injected timing faults.
type NewtonStep struct {
	Index     int
	Rnorm     float64
	CFL       float64
	LinearIts int
	Attempts  int // 1 + retries this step consumed
}

// NewtonResult is the outcome of a distributed solve. On a graceful
// abort (step retries exhausted, world cancelled) NewtonSolve returns
// the partial result alongside the error: the steps completed so far
// remain valid, and the caller's profiler still holds every closed
// phase.
type NewtonResult struct {
	Steps          []NewtonStep
	Converged      bool
	InitialRnorm   float64
	FinalRnorm     float64
	TotalLinearIts int
}

// ResidualHistory returns the initial norm followed by each step's
// norm — the bitwise-comparable trajectory.
func (r *NewtonResult) ResidualHistory() []float64 {
	out := make([]float64, 0, len(r.Steps)+1)
	out = append(out, r.InitialRnorm)
	for _, s := range r.Steps {
		out = append(out, s.Rnorm) //lint:alloc-ok preallocated report helper, not solver hot path
	}
	return out
}

// NewtonSolve advances q to steady state with the distributed ψNK
// iteration: the overlapped distributed residual (Residual), a
// per-step first-order Jacobian partitioned by NewMatrix once and
// reloaded by Refresh thereafter (the sparsity pattern never changes, so
// the halo plan is negotiated at step 0 only), block Jacobi ILU
// subdomain preconditioning refactored in place, and the distributed
// GMRES. Every rank
// calls it collectively with the same discretization, partition, and
// options (SPMD); q is a global-length interlaced state of which this
// rank advances its owned entries (ghost entries are maintained by the
// halo; far entries stay at their initial values and are never read
// into owned results).
//
// The solve is hardened for chaos runs: a failed step (halo exchange
// error, factorization failure, a BeforeStep veto) is retried up to
// StepRetries times — each retry drops the rank's Matrix and rebuilds it
// collectively, so nothing a half-finished attempt touched is trusted —
// and when retries are exhausted — or the world
// itself is cancelled under it — NewtonSolve closes its profiler
// phases and returns the partial result with the error, never a
// half-updated state: q only changes when a step is accepted.
func NewtonSolve(c *mpi.Comm, d *euler.Discretization, part []int32, q []float64, opts NewtonOptions, p *prof.Profiler) (*NewtonResult, error) {
	if opts.CFL0 <= 0 || opts.MaxSteps < 1 {
		return nil, fmt.Errorf("dist: nonpositive CFL0 or MaxSteps")
	}
	if opts.StepRetries < 0 {
		return nil, fmt.Errorf("dist: negative StepRetries")
	}
	if err := opts.Krylov.krylov(nil).Validate(); err != nil {
		return nil, fmt.Errorf("dist: Krylov: %w", err)
	}
	n := d.N()
	if len(q) != n {
		return nil, fmt.Errorf("dist: state length %d, want %d", len(q), n)
	}
	nsp := p.Begin(prof.PhaseNewton)
	defer nsp.End(0, 0)
	// Per-rank worker pool: each rank goroutine owns its own pool for
	// the hybrid ranks×threads mode, released when the solve returns.
	var pool *par.Pool
	if opts.Threads > 1 {
		pool = par.New(opts.Threads)
		defer pool.Close()
	}
	res := &NewtonResult{}
	var rsd *Residual
	if err := c.Protect(func() error {
		var e error
		rsd, e = NewResidual(c, d, part)
		return e
	}); err != nil {
		return res, err
	}
	rsd.Prof = p
	r := make([]float64, n)
	rTrial := make([]float64, n)
	qTrial := make([]float64, n)
	dq := make([]float64, n)
	ts := make([]float64, d.M.NumVertices()) // pseudo-time scales, refilled every step attempt
	jac := d.JacobianPattern()
	var am *Matrix // built by the first step attempt, refreshed by later ones

	var rnorm float64
	if err := c.Protect(func() error {
		if err := rsd.Eval(q, r); err != nil {
			return err
		}
		rnorm = rsd.OwnedNorm2(r)
		return nil
	}); err != nil {
		return res, err
	}
	res.InitialRnorm = rnorm
	res.FinalRnorm = rnorm
	r0 := rnorm
	if r0 == 0 {
		res.Converged = true
		return res, nil
	}

	for step := 0; step < opts.MaxSteps; step++ {
		cfl := opts.CFL0 * math.Pow(r0/rnorm, opts.SERExponent)
		if cfl > opts.CFLMax {
			cfl = opts.CFLMax
		}
		var st GMRESStats
		var newNorm float64
		attempts := 0
		for {
			attempts++
			err := c.Protect(func() error { //lint:alloc-ok one closure per step attempt; the hot path is the GMRES inside
				return newtonStep(c, rsd, d, part, q, r, rnorm, cfl, opts, p, pool,
					jac, &am, qTrial, rTrial, dq, ts, step, attempts-1, &st, &newNorm)
			})
			if err == nil {
				break
			}
			if errors.Is(err, mpi.ErrAborted) || attempts > opts.StepRetries {
				res.FinalRnorm = rnorm
				return res, fmt.Errorf("dist: newton step %d failed after %d attempt(s): %w", step, attempts, err)
			}
			// Nothing the failed attempt touched is trusted: the retry
			// rebuilds the Matrix — and with it the Krylov workspace.
			am = nil
		}
		// Accept: the trial state's ghosts were filled by its residual
		// evaluation, so the whole buffer is consistent.
		copy(q, qTrial)
		copy(r, rTrial)
		rnorm = newNorm
		res.TotalLinearIts += st.Iterations
		res.Steps = append(res.Steps, NewtonStep{ //lint:alloc-ok one history record per pseudo-timestep
			Index: step, Rnorm: rnorm, CFL: cfl,
			LinearIts: st.Iterations, Attempts: attempts,
		})
		res.FinalRnorm = rnorm
		if rnorm/r0 <= opts.RelTol {
			res.Converged = true
			break
		}
		if math.IsNaN(rnorm) || math.IsInf(rnorm, 0) {
			return res, fmt.Errorf("dist: newton diverged at step %d (residual %g)", step, rnorm)
		}
	}
	return res, nil
}

// stepOperator returns this rank's share of jac — am reloaded in place,
// or a Matrix built collectively when am is nil — and its refreshed
// block Jacobi solve, charged to pc_setup.
func stepOperator(c *mpi.Comm, jac *sparse.BCSR, part []int32, am *Matrix, iluOpts ilu.Options,
	p *prof.Profiler, pool *par.Pool) (*Matrix, func(r, z []float64), error) {
	sp := p.Begin(prof.PhasePCSetup)
	if am == nil {
		var err error
		if am, err = NewMatrix(c, jac, part); err != nil {
			sp.End(0, 0)
			return nil, nil, err
		}
		am.Prof = p
		am.SetPool(pool)
		am.lb, am.lx = make([]float64, am.LocalN()), make([]float64, am.LocalN())
	} else if err := am.Refresh(jac); err != nil {
		sp.End(0, 0)
		return nil, nil, err
	}
	pcSolve, err := am.BlockJacobi(iluOpts)
	sp.End(0, am.refreshBytes())
	return am, pcSolve, err
}

// newtonStep runs one pseudo-timestep attempt: Jacobian refresh,
// partitioned extraction (into *amp, built when nil), block Jacobi
// setup, distributed GMRES, and
// the globally synchronized line search. On success *st and *newNorm
// hold the step's outcome and qTrial/rTrial the accepted trial state;
// on error the caller's q and r are untouched, so the attempt can be
// retried or the solve aborted with a consistent partial result.
func newtonStep(c *mpi.Comm, rsd *Residual, d *euler.Discretization, part []int32,
	q, r []float64, rnorm, cfl float64, opts NewtonOptions, p *prof.Profiler, pool *par.Pool,
	jac *sparse.BCSR, amp **Matrix, qTrial, rTrial, dq, ts []float64, step, attempt int,
	st *GMRESStats, newNorm *float64) error {
	if opts.BeforeStep != nil {
		if err := opts.BeforeStep(step, attempt); err != nil {
			return err
		}
	}
	b := d.Sys.B()
	// Pseudo-time-augmented first-order Jacobian, assembled SPMD (every
	// rank assembles from the same q, so the partitioned extraction
	// below sees identical global values; blocks in far rows derive from
	// stale far state, but NewMatrix and Refresh copy only this rank's
	// owned rows, whose columns are all owned-or-ghost — maintained by
	// the halo).
	jsp := p.Begin(prof.PhaseJacobian)
	err := d.AssembleJacobian(q, jac)
	if err == nil {
		d.TimeScalesInto(q, ts)
		newton.AddTimeDiagonal(jac, ts, cfl)
	}
	jsp.End(0, 0)
	if err != nil {
		return err
	}
	am, pcSolve, err := stepOperator(c, jac, part, *amp, opts.ILU, p, pool)
	if err != nil {
		return err
	}
	*amp = am
	lb, lx := am.lb, am.lx
	clear(lx)
	for li, gr := range am.Owned {
		for k := 0; k < b; k++ {
			lb[li*b+k] = -r[int(gr)*b+k]
		}
	}
	gst, err := GMRES(am, pcSolve, lb, lx, opts.Krylov)
	if err != nil {
		return err
	}
	for i := range dq {
		dq[i] = 0
	}
	for li, gr := range am.Owned {
		copy(dq[int(gr)*b:(int(gr)+1)*b], lx[li*b:(li+1)*b])
	}
	// Backtracking on the globally reduced trial norm: every rank
	// computes the same norms, so every rank halves λ together.
	lambda := 1.0
	for try := 0; ; try++ {
		copy(qTrial, q)
		for _, gr := range am.Owned {
			for k := 0; k < b; k++ {
				i := int(gr)*b + k
				qTrial[i] = q[i] + lambda*dq[i]
			}
		}
		if err := rsd.Eval(qTrial, rTrial); err != nil {
			return err
		}
		*newNorm = rsd.OwnedNorm2(rTrial)
		if !opts.LineSearch || *newNorm <= rnorm*(1+1e-10) || try >= 5 {
			break
		}
		lambda *= 0.5
	}
	*st = gst
	return nil
}
