package newton

import (
	"math"
	"testing"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

func iluPC(level int) PCFactory {
	return func(a *sparse.BCSR) (krylov.Preconditioner, error) {
		f, err := ilu.Factor(a, ilu.Options{Level: level})
		if err != nil {
			return nil, err
		}
		return krylov.PrecondFunc(f.Solve), nil
	}
}

func buildSolver(t testing.TB, nx, ny, nz int, sys euler.System, opts Options) (*Solver, []float64) {
	t.Helper()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	d, err := euler.NewDiscretization(m, nil, sys, euler.Options{Order: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := &Solver{Disc: d, PC: iluPC(0), Opts: opts}
	return s, d.FreestreamVector()
}

func TestSolveIncompressibleConverges(t *testing.T) {
	opts := DefaultOptions()
	opts.RelTol = 1e-7
	opts.MaxSteps = 60
	s, q := buildSolver(t, 7, 6, 5, euler.NewIncompressible(), opts)
	res, err := s.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: final %g of initial %g in %d steps",
			res.FinalRnorm, res.InitialRnorm, len(res.Steps))
	}
	// The steady state is a genuinely converged residual: re-evaluate.
	r := make([]float64, s.Disc.N())
	s.Disc.Residual(q, r)
	if got := sparse.Norm2(r); got > 1e-6*res.InitialRnorm {
		t.Errorf("re-evaluated residual %g not small", got)
	}
	// And the flow is nontrivial: velocity differs from freestream
	// somewhere.
	var maxDev float64
	inf := s.Disc.Sys.Freestream()
	b := s.Disc.Sys.B()
	for v := 0; v < s.Disc.M.NumVertices(); v++ {
		for c := 0; c < b; c++ {
			if d := math.Abs(q[v*b+c] - inf[c]); d > maxDev {
				maxDev = d
			}
		}
	}
	if maxDev < 1e-3 {
		t.Errorf("converged state deviates only %g from freestream; problem trivial", maxDev)
	}
}

func TestSolveCompressibleConverges(t *testing.T) {
	opts := DefaultOptions()
	opts.RelTol = 1e-6
	opts.MaxSteps = 80
	opts.CFL0 = 5
	s, q := buildSolver(t, 6, 5, 4, euler.NewCompressible(), opts)
	res, err := s.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("compressible did not converge: %g -> %g", res.InitialRnorm, res.FinalRnorm)
	}
}

func TestSERGrowsCFL(t *testing.T) {
	opts := DefaultOptions()
	opts.RelTol = 1e-7
	s, q := buildSolver(t, 6, 5, 4, euler.NewIncompressible(), opts)
	res, err := s.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) < 2 {
		t.Skip("converged too fast to observe CFL growth")
	}
	first := res.Steps[0].CFL
	last := res.Steps[len(res.Steps)-1].CFL
	if last <= first {
		t.Errorf("CFL did not grow: %g -> %g", first, last)
	}
	if first != opts.CFL0 {
		t.Errorf("first CFL %g, want CFL0 %g", first, opts.CFL0)
	}
}

func TestLargerCFL0FewerSteps(t *testing.T) {
	// Figure 5's effect: for this smooth flow, a more aggressive initial
	// CFL converges in fewer pseudo-timesteps.
	run := func(cfl0 float64) int {
		opts := DefaultOptions()
		opts.CFL0 = cfl0
		opts.RelTol = 1e-7
		opts.MaxSteps = 200
		s, q := buildSolver(t, 6, 5, 4, euler.NewIncompressible(), opts)
		res, err := s.Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("CFL0=%g did not converge", cfl0)
		}
		return len(res.Steps)
	}
	small, large := run(1), run(50)
	if large >= small {
		t.Errorf("CFL0=50 took %d steps, CFL0=1 took %d; expected aggressive CFL to win", large, small)
	}
}

func TestJacobianLagStillConverges(t *testing.T) {
	opts := DefaultOptions()
	opts.JacobianLag = 3
	opts.RelTol = 1e-6
	s, q := buildSolver(t, 6, 5, 4, euler.NewIncompressible(), opts)
	res, err := s.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("lagged-Jacobian solve did not converge")
	}
}

func TestOrderContinuation(t *testing.T) {
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(6, 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	sys := euler.NewIncompressible()
	d1, err := euler.NewDiscretization(m, nil, sys, euler.Options{Order: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := euler.NewDiscretization(m, d1.Geo, sys, euler.Options{Order: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SwitchOrderAt = 1e-2
	opts.RelTol = 1e-6
	opts.MaxSteps = 150
	s := &Solver{Disc: d1, Disc2: d2, PC: iluPC(0), Opts: opts}
	q := d1.FreestreamVector()
	res, err := s.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("order-continuation solve did not converge: %g -> %g in %d steps",
			res.InitialRnorm, res.FinalRnorm, len(res.Steps))
	}
	sawFirst, sawSecond := false, false
	for _, st := range res.Steps {
		switch st.Order {
		case 1:
			sawFirst = true
		case 2:
			sawSecond = true
		}
	}
	if !sawFirst || !sawSecond {
		t.Errorf("order continuation did not use both orders (first=%v second=%v)", sawFirst, sawSecond)
	}
}

func TestSolveValidation(t *testing.T) {
	s, q := buildSolver(t, 4, 3, 3, euler.NewIncompressible(), DefaultOptions())
	s.PC = nil
	if _, err := s.Solve(q); err == nil {
		t.Error("nil PC accepted")
	}
	s.PC = iluPC(0)
	if _, err := s.Solve(q[:5]); err == nil {
		t.Error("short state accepted")
	}
	s.Opts.CFL0 = 0
	if _, err := s.Solve(q); err == nil {
		t.Error("zero CFL0 accepted")
	}
}

func TestStepsRecordLinearIterations(t *testing.T) {
	opts := DefaultOptions()
	opts.RelTol = 1e-5
	s, q := buildSolver(t, 5, 4, 4, euler.NewIncompressible(), opts)
	res, err := s.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range res.Steps {
		total += st.LinearIts
		if st.FluxEvals < 1 {
			t.Errorf("step %d recorded no flux evaluations", st.Index)
		}
	}
	if total != res.TotalLinearIts {
		t.Errorf("step linear its sum %d != total %d", total, res.TotalLinearIts)
	}
	if total == 0 {
		t.Error("no linear iterations recorded")
	}
}

// TestSolveOpensOneNewtonSpan: a solve records one uncharged newton
// span on the process-wide profiler, the root its phases nest in.
func TestSolveOpensOneNewtonSpan(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSteps = 2
	s, q := buildSolver(t, 5, 4, 4, euler.NewIncompressible(), opts)
	prof.Default.Reset()
	prof.Default.Enable()
	_, err := s.Solve(q)
	prof.Default.Disable()
	rep := prof.Default.Report(0)
	prof.Default.Reset()
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, ps := range rep.Phases {
		if ps.Phase != "newton" {
			continue
		}
		found = true
		if ps.Calls != 1 || ps.Flops != 0 || ps.Bytes != 0 {
			t.Errorf("newton phase has %d calls, %d flops, %d bytes; want 1, 0, 0", ps.Calls, ps.Flops, ps.Bytes)
		}
	}
	if !found {
		t.Errorf("no newton phase in %+v", rep.Phases)
	}
}

func TestAssembledOperatorConverges(t *testing.T) {
	opts := DefaultOptions()
	opts.AssembledOperator = true
	opts.RelTol = 1e-6
	s, q := buildSolver(t, 6, 5, 4, euler.NewIncompressible(), opts)
	res, err := s.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("assembled-operator solve did not converge: %g -> %g",
			res.InitialRnorm, res.FinalRnorm)
	}
	// The assembled operator performs no flux evaluations inside GMRES,
	// so total flux evaluations are far below the matrix-free run's.
	opts2 := DefaultOptions()
	opts2.RelTol = 1e-6
	s2, q2 := buildSolver(t, 6, 5, 4, euler.NewIncompressible(), opts2)
	res2, err := s2.Solve(q2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFluxEvals >= res2.TotalFluxEvals {
		t.Errorf("assembled operator flux evals %d not below matrix-free %d",
			res.TotalFluxEvals, res2.TotalFluxEvals)
	}
}
