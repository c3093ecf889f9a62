package dist

import (
	"fmt"

	"petscfun3d/internal/krylov"
	"petscfun3d/internal/par"
)

// GMRESOptions configures the distributed solve.
type GMRESOptions struct {
	Restart  int
	MaxIters int
	RelTol   float64
}

// krylov maps the options onto the one GMRES: the single-round "cgs1"
// orthogonalization, because here every round is a global
// synchronization.
func (o GMRESOptions) krylov(pool *par.Pool) krylov.Options {
	return krylov.Options{Restart: o.Restart, MaxIters: o.MaxIters, RelTol: o.RelTol,
		Orthogonalization: "cgs1", Pool: pool}
}

// GMRESStats reports the distributed solve's outcome. Reductions
// counts the global synchronization rounds the solve performed (every
// collective): krylov.Stats.Reductions — ONE batched round per inner
// iteration, where per-vector Gram-Schmidt pays j+2 — plus the residual
// norm round at the start and at each restart.
type GMRESStats struct {
	Iterations   int
	Restarts     int
	Reductions   int
	Converged    bool
	ResidualNorm float64
}

// GMRES runs right-preconditioned restarted GMRES on the distributed
// system A x = b: the one GMRES (krylov.Workspace.SolveOn, in the
// workspace a keeps from solve to solve) over this rank's owned parts b
// and x, with a.MulVec as the operator, inner products summed through
// the communicator, and the Matrix's pool and profiler. pc is the local
// preconditioner solve (e.g. from Matrix.BlockJacobi). Every rank calls
// it collectively; all ranks see the same reduced values, so all take
// identical iteration decisions.
func GMRES(a *Matrix, pc func(r, z []float64), b, x []float64, opts GMRESOptions) (GMRESStats, error) {
	if n := a.LocalN(); len(b) != n || len(x) != n {
		return GMRESStats{}, fmt.Errorf("dist: local vector lengths %d/%d, want %d", len(b), len(x), n)
	}
	sum := func(buf []float64) { a.Comm.AllReduceSumVec(buf, buf) }
	st, err := a.ws.SolveOn(krylov.Space{Sum: sum, Prof: a.Prof}, a.MulVec, pc, b, x, opts.krylov(a.pool))
	return GMRESStats{
		Iterations: st.Iterations,
		Restarts:   st.Restarts,
		// Each residual evaluation is one matvec outside the iterations
		// and one norm round.
		Reductions:   st.Reductions + st.MatVecs - st.Iterations,
		Converged:    st.Converged,
		ResidualNorm: st.ResidualNorm,
	}, err
}
