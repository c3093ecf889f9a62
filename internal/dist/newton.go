package dist

import (
	"errors"
	"fmt"

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

// newton maps the options onto the one ψNK loop.
func (o NewtonOptions) newton() newton.Options {
	return newton.Options{CFL0: o.CFL0, SERExponent: o.SERExponent, CFLMax: o.CFLMax,
		MaxSteps: o.MaxSteps, RelTol: o.RelTol, LineSearch: o.LineSearch, StepRetries: o.StepRetries}
}

// NewtonStep and NewtonResult are the one loop's records; dist fills
// neither FluxEvals nor Order (its operator is the assembled one).
type (
	NewtonStep   = newton.Step
	NewtonResult = newton.Result
)

// NewtonSolve advances q to steady state with the distributed ψNK
// iteration — newton.Iterate over this rank's System: the overlapped
// distributed residual (Residual), a per-step first-order Jacobian of
// which each rank assembles the rows it owns, in place in a Matrix
// planned from the mesh graph once (the sparsity pattern never changes,
// so the halo plan is negotiated at step 0 only), block Jacobi ILU
// subdomain preconditioning refactored in place, and the distributed
// GMRES. Every rank calls it collectively
// with the same discretization, partition, and options (SPMD); q is a
// global-length interlaced state of which this rank advances its owned
// entries (ghost entries are maintained by the halo; far entries stay at
// their initial values and are never read into owned results).
//
// The solve is hardened for chaos runs: a failed step (halo exchange
// error, factorization failure, a BeforeStep veto) is retried up to
// StepRetries times — each retry drops the rank's Matrix and rebuilds it
// collectively, so nothing a half-finished attempt touched is trusted —
// and when retries are exhausted, or the world itself is cancelled under
// it, NewtonSolve closes its profiler phases and returns the partial
// result with the error, never a half-updated state.
func NewtonSolve(c *mpi.Comm, d *euler.Discretization, part []int32, q []float64, opts NewtonOptions, p *prof.Profiler) (*NewtonResult, error) {
	if err := opts.Krylov.krylov(nil).Validate(); err != nil {
		return nil, fmt.Errorf("dist: Krylov: %w", err)
	}
	if len(q) != d.N() {
		return nil, fmt.Errorf("dist: state length %d, want %d", len(q), d.N())
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
	var rsd *Residual
	if err := c.Protect(func() (err error) {
		rsd, err = NewResidual(c, d, part)
		return err
	}); err != nil {
		return &NewtonResult{}, err
	}
	rsd.Prof = p
	b := d.Sys.B()
	var am *Matrix // built by the first step attempt, reassembled in place by later ones

	return newton.Iterate(newton.System{
		// The trial state's ghosts are filled by its residual evaluation,
		// so the whole buffer is consistent when the loop accepts it.
		Residual: func(q, r []float64) (norm float64, err error) {
			err = c.Protect(func() (err error) {
				if err = rsd.Eval(q, r); err == nil {
					norm = rsd.OwnedNorm2(r)
				}
				return err
			})
			return norm, err
		},
		// One step attempt: in-place Jacobian assembly (into am, built when
		// nil), block Jacobi setup and distributed GMRES.
		Correct: func(cor *newton.Correction) (its int, err error) {
			err = c.Protect(func() error {
				if cor.Attempt > 0 {
					// Nothing the failed attempt touched is trusted: the retry
					// rebuilds the Matrix — and with it the assembly plan and
					// the Krylov workspace.
					am = nil
				}
				if opts.BeforeStep != nil {
					if err := opts.BeforeStep(cor.Step, cor.Attempt); err != nil {
						return err
					}
				}
				var pcSolve func(r, z []float64)
				var err error
				if am, pcSolve, err = stepOperator(c, rsd, part, am, cor.Q, cor.CFL, opts.ILU, p, pool); err != nil {
					return err
				}
				clear(am.lx)
				for li, gr := range am.Owned {
					copy(am.lb[li*b:(li+1)*b], cor.RHS[int(gr)*b:(int(gr)+1)*b])
				}
				gst, err := GMRES(am, pcSolve, am.lb, am.lx, opts.Krylov)
				if err != nil {
					return err
				}
				// DQ arrives zeroed; only the owned entries are this rank's.
				for li, gr := range am.Owned {
					copy(cor.DQ[int(gr)*b:(int(gr)+1)*b], am.lx[li*b:(li+1)*b])
				}
				its = gst.Iterations
				return nil
			})
			return its, err
		},
		Fatal: func(err error) bool { return errors.Is(err, mpi.ErrAborted) },
	}, q, opts.newton())
}

// stepOperator assembles this rank's rows of the pseudo-time-augmented
// first-order Jacobian at q straight into am's two blocks (the rows'
// columns are all owned or ghost, which the residual's halo keeps
// current in q) and refactors the block Jacobi solve from them in
// place. A nil am is built first, collectively: the Matrix planned from
// the mesh graph, and the assembly plan that addresses its values.
func stepOperator(c *mpi.Comm, rsd *Residual, part []int32, am *Matrix, q []float64, cfl float64,
	iluOpts ilu.Options, p *prof.Profiler, pool *par.Pool) (*Matrix, func(r, z []float64), error) {
	if am == nil {
		sp := p.Begin(prof.PhasePCSetup)
		var err error
		am, err = planOperator(c, rsd, part)
		sp.End(0, 0)
		if err != nil {
			return nil, nil, err
		}
		am.Prof = p
		am.SetPool(pool)
	}
	jsp := p.Begin(prof.PhaseJacobian)
	am.jac.Assemble(q, am.val)
	am.jac.TimeScalesInto(q, am.ts)
	newton.AddTimeDiagonal(am.diag, am.ts, cfl)
	jsp.End(am.jac.Flops(), am.jac.Bytes())
	sp := p.Begin(prof.PhasePCSetup)
	pcSolve, err := am.BlockJacobi(iluOpts)
	sp.End(0, 0) // the factorization is charged by its own span
	return am, pcSolve, err
}

// planOperator builds the Matrix NewtonSolve assembles into: structure
// and halo plan from the mesh graph, then what the steps need on top.
func planOperator(c *mpi.Comm, rsd *Residual, part []int32) (*Matrix, error) {
	d := rsd.D
	am, _, err := planMatrix(c, sparse.Graph{NV: d.M.NumVertices(), XAdj: d.M.XAdj, Adj: d.M.Adj}, true, d.Sys.B(), part)
	if err != nil {
		return nil, err
	}
	return am, am.planAssembly(d)
}

// planAssembly gives m what a Newton step needs beyond the operator: the
// assembly plan over its value array, and the local right-hand side,
// correction and pseudo-time scales (one per local row, then the sink's).
func (m *Matrix) planAssembly(d *euler.Discretization) (err error) {
	if m.jac, err = d.PlanLocalJacobian(m.Owned, m.block, m.sink()); err != nil {
		return err
	}
	m.lb, m.lx = make([]float64, m.LocalN()), make([]float64, m.LocalN())
	m.ts = make([]float64, len(m.Owned)+1)
	return nil
}
