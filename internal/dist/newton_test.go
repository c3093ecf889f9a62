package dist

import (
	"math"
	"testing"
	"time"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/schwarz"
	"petscfun3d/internal/sparse"
)

// TestDistMatchesSequential binds the two callers of newton.Iterate to
// each other: dist.NewtonSolve against newton.Solver configured as the
// same algorithm — assembled operator, single-round cgs1 GMRES(30),
// block Jacobi ILU(0) (schwarz at overlap 0) on the same partition. On
// one rank every operation happens in the same order, so the residual
// histories are bitwise equal; on 2 and 4 ranks only the summation
// order of the inner products and norms differs, so the step and
// linear-iteration counts agree and every history entry matches to 1e-6
// relative. First row of the robustness matrix (ROADMAP 6(a)).
func TestDistMatchesSequential(t *testing.T) {
	dopts := DefaultNewtonOptions()
	for _, nranks := range []int{1, 2, 4} {
		d, p, q0 := buildResidualProblem(t, 9, 7, 6, nranks)

		sopts := dopts.newton()
		sopts.JacobianLag = 1
		sopts.AssembledOperator = true
		sopts.Krylov = dopts.Krylov.krylov(nil)
		seq := &newton.Solver{Disc: d, Opts: sopts,
			PC: func(a *sparse.BCSR) (krylov.Preconditioner, error) {
				return schwarz.New(a, p.Part, nranks, schwarz.Options{ILU: ilu.Options{Level: 0}})
			}}
		want, err := seq.Solve(append([]float64(nil), q0...))
		if err != nil {
			t.Fatal(err)
		}
		if !want.Converged || len(want.Steps) < 5 {
			t.Fatalf("%d parts: sequential reference %+v is not a converged multi-step solve", nranks, want)
		}

		results := make([]*NewtonResult, nranks)
		err = mpi.Run(nranks, func(c *mpi.Comm) error {
			res, err := NewtonSolve(c, d, p.Part, append([]float64(nil), q0...), dopts, nil)
			results[c.Rank()] = res
			return err
		}, mpi.Options{WatchdogTimeout: 60 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		got := results[0]
		if got.Converged != want.Converged || len(got.Steps) != len(want.Steps) || got.TotalLinearIts != want.TotalLinearIts {
			t.Fatalf("%d ranks: %d steps, %d linear its, converged %v; sequential %d, %d, %v", nranks,
				len(got.Steps), got.TotalLinearIts, got.Converged, len(want.Steps), want.TotalLinearIts, want.Converged)
		}
		for i, st := range got.Steps {
			if st.LinearIts != want.Steps[i].LinearIts {
				t.Errorf("%d ranks, step %d: %d linear its, sequential %d", nranks, i, st.LinearIts, want.Steps[i].LinearIts)
			}
		}
		gh, wh := got.ResidualHistory(), want.ResidualHistory()
		if nranks == 1 {
			if err := bitsDiffer(gh, wh); err != nil {
				t.Errorf("1 rank: residual history vs sequential: %v", err)
			}
			continue
		}
		for i := range gh {
			if rel := math.Abs(gh[i]-wh[i]) / wh[i]; !(rel <= 1e-6) {
				t.Errorf("%d ranks, history entry %d: %g vs sequential %g (relative %.2g, want <= 1e-6)", nranks, i, gh[i], wh[i], rel)
			}
		}
	}
}
