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

// Validate rejects settings no solve can honor, naming the field. The
// Krylov options are validated where they are used (krylov.Solve), and
// JacobianLag 0 is valid: the preconditioner is then built once.
func (o Options) Validate() error {
	switch {
	case !(o.CFL0 > 0): // rejects NaN too
		return fmt.Errorf("newton: CFL0 %g, want > 0", o.CFL0)
	case !(o.CFLMax >= o.CFL0):
		return fmt.Errorf("newton: CFLMax %g, want >= CFL0 %g", o.CFLMax, o.CFL0)
	case math.IsNaN(o.SERExponent) || math.IsInf(o.SERExponent, 0):
		return fmt.Errorf("newton: SERExponent %g, want finite", o.SERExponent)
	case o.MaxSteps < 1:
		return fmt.Errorf("newton: MaxSteps %d, want >= 1", o.MaxSteps)
	case !(o.RelTol > 0):
		return fmt.Errorf("newton: RelTol %g, want > 0", o.RelTol)
	case o.JacobianLag < 0:
		return fmt.Errorf("newton: JacobianLag %d, want >= 0", o.JacobianLag)
	case !(o.SwitchOrderAt >= 0):
		return fmt.Errorf("newton: SwitchOrderAt %g, want >= 0", o.SwitchOrderAt)
	case o.StepRetries < 0:
		return fmt.Errorf("newton: StepRetries %d, want >= 0", o.StepRetries)
	}
	return nil
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
// and efficiency decompositions (Table 3). The Rnorm sequence is the
// solve's residual history — the quantity the chaos soak asserts is
// bitwise identical under injected timing faults.
type Step struct {
	Index     int
	Rnorm     float64
	CFL       float64
	LinearIts int
	FluxEvals int
	Order     int
	Attempts  int // 1 + retries this step consumed
}

// Result is the outcome of a steady-state solve. On a graceful abort
// (step retries exhausted, world cancelled) it is returned partial
// alongside the error: the steps completed so far remain valid, and the
// caller's profiler still holds every closed phase.
type Result struct {
	Steps          []Step
	Converged      bool
	FinalRnorm     float64
	InitialRnorm   float64
	TotalLinearIts int
	TotalFluxEvals int
}

// ResidualHistory returns the initial norm followed by each step's
// norm — the bitwise-comparable trajectory.
func (r *Result) ResidualHistory() []float64 {
	out := make([]float64, 0, len(r.Steps)+1)
	out = append(out, r.InitialRnorm)
	for _, s := range r.Steps {
		out = append(out, s.Rnorm)
	}
	return out
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

// Solve advances q (in place, interlaced layout) to steady state: the
// one-address-space System of Iterate.
func (s *Solver) Solve(q []float64) (*Result, error) {
	if s.PC == nil {
		return nil, fmt.Errorf("newton: no preconditioner factory")
	}
	d := s.Disc
	if len(q) != d.N() {
		return nil, fmt.Errorf("newton: state length %d, want %d", len(q), d.N())
	}
	h := s.Hooks
	if h == nil {
		h = &Hooks{}
	}
	// Root profiling span: its self time is the Newton loop's own work
	// (pseudo-timestep scales, line-search bookkeeping, state updates)
	// not claimed by a nested phase.
	nsp := prof.Begin(prof.PhaseNewton)
	defer nsp.End(0, 0)
	// The solve's one Krylov workspace, reserved before the Jacobian and
	// not by the first linear solve: the collection the Jacobian's
	// allocation forces then counts both live and sets a heap goal above
	// everything the solve keeps, where one that first saw the workspace
	// after the factors doubled the goal with all of it live (seq-22k:
	// peak RSS 160 MB instead of 228–305, EXPERIMENTS.md).
	var ws krylov.Workspace
	ws.Reserve(d.N(), s.Opts.Krylov)
	ts := make([]float64, d.M.NumVertices()) // pseudo-time scales, refilled every step attempt
	jac := d.JacobianPattern()
	var pc krylov.Preconditioner
	active := d
	// fluxEvals counts every flux evaluation of the solve, stepStart its
	// value when the current step began.
	var fluxEvals, stepStart int

	// The operators are built once and read the attempt's buffers and cfl
	// through c, and ‖q‖ (q is fixed while a step's Krylov solve runs)
	// through qnorm.
	var c *Correction
	var qnorm float64
	op := krylov.OperatorFunc(func(v, y []float64) {
		// Matrix-free: Jv = (R(q+εv) − R(q))/ε + (V/Δt) v.
		vn := sparse.Norm2(v)
		if vn == 0 {
			clear(y)
			return
		}
		eps := 1e-8 * (1 + qnorm) / vn
		for i := range c.Trial {
			c.Trial[i] = c.Q[i] + eps*v[i]
		}
		active.Residual(c.Trial, y)
		fluxEvals++
		inv := 1 / eps
		b := d.Sys.B()
		for vtx := 0; vtx < d.M.NumVertices(); vtx++ {
			td := ts[vtx] / c.CFL
			for k := 0; k < b; k++ {
				i := vtx*b + k
				y[i] = (y[i]-c.R[i])*inv + td*v[i]
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

	res, err := Iterate(System{
		Residual: func(q, r []float64) (float64, error) {
			active.Residual(q, r)
			fluxEvals++
			if h.AfterResidual != nil {
				h.AfterResidual()
			}
			return sparse.Norm2(r), nil
		},
		// Preconditioner refresh from the lagged first-order Jacobian, then
		// the inexact Newton correction. A retry re-runs it from a clean
		// assembly: AssembleJacobian zero-fills, so no partial time diagonal
		// survives, and a preconditioner built by a half-finished attempt
		// is not trusted.
		Correct: func(cc *Correction) (its int, err error) {
			c = cc
			if h.OnStepError != nil {
				defer func() {
					if err != nil {
						h.OnStepError(c.Step, c.Attempt, err)
					}
				}()
			}
			if c.Attempt == 0 {
				stepStart = fluxEvals
			} else {
				pc = nil
			}
			// Pseudo-time augmentation: V/Δt = TimeScales/CFL per vertex.
			d.TimeScalesInto(c.Q, ts)
			if !s.Opts.AssembledOperator {
				qnorm = sparse.Norm2(c.Q)
			}
			if pc == nil || (s.Opts.JacobianLag > 0 && c.Step%s.Opts.JacobianLag == 0) {
				if err = d.AssembleJacobian(c.Q, jac); err != nil {
					return 0, err
				}
				AddTimeDiagonal(jac, ts, c.CFL)
				if pc, err = s.PC(jac); err != nil {
					return 0, err
				}
				if h.AfterJacobian != nil {
					h.AfterJacobian()
				}
			}
			var kop krylov.Operator = op
			kpc := pc
			if h.WrapOperator != nil {
				kop = h.WrapOperator(kop)
			}
			if h.WrapPreconditioner != nil {
				kpc = h.WrapPreconditioner(kpc)
			}
			kst, err := ws.Solve(kop, kpc, c.RHS, c.DQ, s.Opts.Krylov)
			return kst.Iterations, err
		},
		// Order continuation: past SwitchOrderAt the second-order residual
		// takes over, and the loop re-evaluates r(q) with it.
		Accepted: func(st *Step, reduction float64) bool {
			st.FluxEvals, st.Order = fluxEvals-stepStart, active.Opts.Order
			if s.Disc2 != nil && active == d && s.Opts.SwitchOrderAt > 0 && reduction < s.Opts.SwitchOrderAt {
				active = s.Disc2
				return true
			}
			return false
		},
	}, q, s.Opts)
	if res != nil {
		res.TotalFluxEvals = fluxEvals
	}
	return res, err
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
