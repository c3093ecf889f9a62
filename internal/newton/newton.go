// Package newton implements the pseudo-transient Newton-Krylov (ψNK)
// solver that drives the application to steady state: local pseudo-
// timesteps grown by the switched evolution/relaxation (SER) power law on
// the CFL number, an inexact Newton correction solved by preconditioned
// GMRES with a matrix-free Jacobian-vector product, a lagged first-order
// analytical preconditioner Jacobian, and optional discretization-order
// continuation (first-order flux early, second-order after a residual
// reduction), exactly the tuning knobs catalogued in section 2.4 of the
// paper.
package newton

import (
	"fmt"
	"math"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// Options are the ψNKS algorithmic parameters (section 2.4).
type Options struct {
	// CFL0 is the initial CFL number (Figure 5 sweeps it).
	CFL0 float64
	// SERExponent is the power p of the SER law
	// CFL_l = CFL0 (||f0||/||f_{l-1}||)^p; near 1, damped to 0.75 for
	// shocked flows, up to 1.5 for first-order discretizations.
	SERExponent float64
	// CFLMax caps the CFL growth (the paper lets it reach ~1e5).
	CFLMax float64
	// MaxSteps bounds the pseudo-timesteps.
	MaxSteps int
	// RelTol is the required residual reduction ||f||/||f0||.
	RelTol float64
	// Krylov configures the inner GMRES solves.
	Krylov krylov.Options
	// JacobianLag refreshes the preconditioner Jacobian every lag steps
	// (1 = every step).
	JacobianLag int
	// SwitchOrderAt switches the flux evaluation from first to second
	// order once ||f||/||f0|| falls below it; 0 disables switching (the
	// active discretization is used throughout).
	SwitchOrderAt float64
	// LineSearch enables backtracking on residual increase.
	LineSearch bool
	// AssembledOperator applies the assembled (first-order,
	// time-augmented) Jacobian in the Krylov solve instead of the
	// matrix-free finite-difference product. The paper's implementation
	// is matrix-free; the assembled option trades flux evaluations for
	// matrix storage and is exact only for first-order discretizations.
	AssembledOperator bool
	// StepRetries bounds how many times one step's fallible section
	// (Jacobian assembly, preconditioner build, Krylov solve) is
	// re-attempted before Solve aborts gracefully, returning the partial
	// Result — the steps completed so far — alongside the error. 0
	// (the default) fails on the first error.
	StepRetries int
}

// DefaultOptions returns settings that converge the incompressible wing
// problem robustly.
func DefaultOptions() Options {
	return Options{
		CFL0:        10,
		SERExponent: 1.0,
		CFLMax:      1e5,
		MaxSteps:    100,
		RelTol:      1e-8,
		Krylov:      krylov.Options{Restart: 20, MaxIters: 40, RelTol: 1e-2},
		JacobianLag: 1,
		LineSearch:  true,
	}
}

// PCFactory builds a preconditioner from the (time-augmented) Jacobian.
type PCFactory func(a *sparse.BCSR) (krylov.Preconditioner, error)

// Hooks lets a caller observe and wrap the solver's numerical phases —
// the attachment point for the virtual machine's cost accounting. All
// fields are optional.
type Hooks struct {
	// AfterResidual fires after every direct residual evaluation in the
	// Newton loop (initial evaluation, line-search trials).
	AfterResidual func()
	// AfterJacobian fires after each preconditioner Jacobian refresh
	// (assembly + factorization).
	AfterJacobian func()
	// WrapOperator wraps the matrix-free Jacobian operator handed to
	// GMRES (each Apply is one matvec: halo exchange + flux evaluation).
	WrapOperator func(krylov.Operator) krylov.Operator
	// WrapPreconditioner wraps the preconditioner handed to GMRES.
	WrapPreconditioner func(krylov.Preconditioner) krylov.Preconditioner
	// OnStepError fires after each failed step attempt, before the
	// retry decision: attempt is 0-based, and Options.StepRetries
	// decides whether the step is re-attempted or the solve aborts with
	// the partial Result.
	OnStepError func(step, attempt int, err error)
}

// Step records one pseudo-timestep for convergence histories (Figure 5)
// and efficiency decompositions (Table 3).
type Step struct {
	Index     int
	Rnorm     float64
	CFL       float64
	LinearIts int
	FluxEvals int
	Order     int
}

// Result is the outcome of a steady-state solve.
type Result struct {
	Steps          []Step
	Converged      bool
	FinalRnorm     float64
	InitialRnorm   float64
	TotalLinearIts int
	TotalFluxEvals int
}

// Solver drives a discretization to steady state.
type Solver struct {
	// Disc evaluates the operative residual (its Opts.Order is the
	// "current" discretization order; order continuation switches to
	// Disc2).
	Disc *euler.Discretization
	// Disc2, when non-nil, is the second-order discretization activated
	// by Options.SwitchOrderAt.
	Disc2 *euler.Discretization
	// PC builds the preconditioner each time the Jacobian is refreshed;
	// nil means global ILU(0) is a caller bug — supply one.
	PC   PCFactory
	Opts Options
	// Hooks, when non-nil, instruments the solve (see Hooks).
	Hooks *Hooks
}

// Solve advances q (in place, interlaced layout) to steady state.
func (s *Solver) Solve(q []float64) (*Result, error) {
	if s.PC == nil {
		return nil, fmt.Errorf("newton: no preconditioner factory")
	}
	if s.Opts.CFL0 <= 0 || s.Opts.MaxSteps < 1 {
		return nil, fmt.Errorf("newton: nonpositive CFL0 or MaxSteps")
	}
	d := s.Disc
	n := d.N()
	if len(q) != n {
		return nil, fmt.Errorf("newton: state length %d, want %d", len(q), n)
	}
	// Root profiling span: its self time is the Newton loop's own work
	// (pseudo-timestep scales, line-search bookkeeping, state updates)
	// not claimed by a nested phase.
	nsp := prof.Begin(prof.PhaseNewton)
	defer nsp.End(0, 0)
	res := &Result{}
	r := make([]float64, n)
	rhs := make([]float64, n)
	dq := make([]float64, n)
	qTrial := make([]float64, n)
	ts := make([]float64, d.M.NumVertices()) // pseudo-time scales, refilled every step
	jac := d.JacobianPattern()
	var pc krylov.Preconditioner
	fluxEvals := 0

	active := d
	d.Residual(q, r)
	fluxEvals++
	s.fireResidual()
	r0 := sparse.Norm2(r)
	if r0 == 0 {
		res.Converged = true
		return res, nil
	}
	res.InitialRnorm = r0
	rnorm := r0

	// The operators are built once and read the step's cfl, flux count
	// and ‖q‖ (q is fixed while a step's Krylov solve runs) through
	// these variables; ws is the solve's one Krylov workspace.
	var cfl, qnorm float64
	var stepFlux int
	var ws krylov.Workspace
	op := krylov.OperatorFunc(func(v, y []float64) {
		// Matrix-free: Jv = (R(q+εv) − R(q))/ε + (V/Δt) v.
		vn := sparse.Norm2(v)
		if vn == 0 {
			for i := range y {
				y[i] = 0
			}
			return
		}
		eps := 1e-8 * (1 + qnorm) / vn
		for i := range qTrial {
			qTrial[i] = q[i] + eps*v[i]
		}
		active.Residual(qTrial, y)
		stepFlux++
		inv := 1 / eps
		b := d.Sys.B()
		for vtx := 0; vtx < d.M.NumVertices(); vtx++ {
			td := ts[vtx] / cfl
			for c := 0; c < b; c++ {
				i := vtx*b + c
				y[i] = (y[i]-r[i])*inv + td*v[i]
			}
		}
	})
	if s.Opts.AssembledOperator {
		op = func(v, y []float64) {
			// Striped owner-computes product: bitwise identical to the
			// sequential MulVec at every worker count, so the assembled
			// path's residual history is thread-count invariant too.
			prof.NoteThreads(prof.PhaseMatVec, s.Opts.Krylov.Pool.Workers())
			jac.MulVecPar(s.Opts.Krylov.Pool, v, y)
		}
	}

	for step := 0; step < s.Opts.MaxSteps; step++ {
		// Order continuation.
		if s.Disc2 != nil && active == d && s.Opts.SwitchOrderAt > 0 && rnorm/r0 < s.Opts.SwitchOrderAt {
			active = s.Disc2
			active.Residual(q, r)
			fluxEvals++
			s.fireResidual()
			rnorm = sparse.Norm2(r)
		}
		// SER: grow the CFL with residual reduction.
		cfl = s.Opts.CFL0 * math.Pow(r0/rnorm, s.Opts.SERExponent)
		if cfl > s.Opts.CFLMax {
			cfl = s.Opts.CFLMax
		}
		// Pseudo-time augmentation: V/Δt = TimeScales/CFL per vertex.
		d.TimeScalesInto(q, ts)
		stepFlux = 0
		if !s.Opts.AssembledOperator {
			qnorm = sparse.Norm2(q)
		}
		// The fallible section — preconditioner refresh from the lagged
		// first-order Jacobian, then the inexact Newton correction — runs
		// under bounded retry: a failed attempt is re-run from a clean
		// assembly (AssembleJacobian zero-fills, so no partial time
		// diagonal survives), and when Options.StepRetries is exhausted
		// the solve aborts gracefully with the partial Result.
		var kst krylov.Stats
		attempts := 0
		for {
			attempts++
			err := func() error {
				if pc == nil || (s.Opts.JacobianLag > 0 && step%s.Opts.JacobianLag == 0) {
					if err := d.AssembleJacobian(q, jac); err != nil {
						return err
					}
					AddTimeDiagonal(jac, ts, cfl)
					var err error
					pc, err = s.PC(jac)
					if err != nil {
						return err
					}
					if s.Hooks != nil && s.Hooks.AfterJacobian != nil {
						s.Hooks.AfterJacobian()
					}
				}
				for i := range rhs {
					rhs[i] = -r[i]
					dq[i] = 0
				}
				var kop krylov.Operator = op
				kpc := pc
				if s.Hooks != nil {
					if s.Hooks.WrapOperator != nil {
						kop = s.Hooks.WrapOperator(kop)
					}
					if s.Hooks.WrapPreconditioner != nil {
						kpc = s.Hooks.WrapPreconditioner(kpc)
					}
				}
				var err error
				kst, err = ws.Solve(kop, kpc, rhs, dq, s.Opts.Krylov)
				return err
			}()
			if err == nil {
				break
			}
			if s.Hooks != nil && s.Hooks.OnStepError != nil {
				s.Hooks.OnStepError(step, attempts-1, err)
			}
			if attempts > s.Opts.StepRetries {
				res.FinalRnorm = rnorm
				res.TotalFluxEvals = fluxEvals + stepFlux
				return res, fmt.Errorf("newton: step %d failed after %d attempt(s): %w", step, attempts, err)
			}
			// Force a clean refresh on the retry: a preconditioner built
			// by a half-finished attempt must not be trusted.
			pc = nil
		}
		// Line search (backtracking) on the residual norm.
		lambda := 1.0
		var newNorm float64
		for attempt := 0; ; attempt++ {
			for i := range qTrial {
				qTrial[i] = q[i] + lambda*dq[i]
			}
			active.Residual(qTrial, rhs)
			stepFlux++
			s.fireResidual()
			newNorm = sparse.Norm2(rhs)
			if !s.Opts.LineSearch || newNorm <= rnorm*(1+1e-10) || attempt >= 5 {
				break
			}
			lambda *= 0.5
		}
		copy(q, qTrial)
		copy(r, rhs)
		rnorm = newNorm
		fluxEvals += stepFlux
		res.TotalLinearIts += kst.Iterations
		res.Steps = append(res.Steps, Step{
			Index: step, Rnorm: rnorm, CFL: cfl,
			LinearIts: kst.Iterations, FluxEvals: stepFlux,
			Order: active.Opts.Order,
		})
		if rnorm/r0 <= s.Opts.RelTol {
			res.Converged = true
			break
		}
		if math.IsNaN(rnorm) || math.IsInf(rnorm, 0) {
			return res, fmt.Errorf("newton: diverged at step %d (residual %g)", step, rnorm)
		}
	}
	res.FinalRnorm = rnorm
	res.TotalFluxEvals = fluxEvals
	return res, nil
}

// AddTimeDiagonal adds ts[v]/cfl to the diagonal of every diagonal
// block — the pseudo-transient augmentation V/Δt of the Jacobian.
// Exported so fun3d can build the same shifted operator for its
// measured distributed-efficiency sweep.
func AddTimeDiagonal(a *sparse.BCSR, ts []float64, cfl float64) {
	b := a.B
	for v := 0; v < a.NB; v++ {
		blk, ok := a.BlockAt(v, v)
		if !ok {
			continue
		}
		td := ts[v] / cfl
		for c := 0; c < b; c++ {
			blk[c*b+c] += td
		}
	}
}

// fireResidual invokes the AfterResidual hook when installed.
func (s *Solver) fireResidual() {
	if s.Hooks != nil && s.Hooks.AfterResidual != nil {
		s.Hooks.AfterResidual()
	}
}
