package petscfun3d

import (
	"math"
	"testing"
)

// Integration tests of the public facade: the full pipeline from Config
// to converged flow, sequential and parallel, exactly as a downstream
// user would drive it.

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.TargetVertices = 1500
	cfg.Newton.RelTol = 1e-6
	cfg.Newton.MaxSteps = 60
	return cfg
}

func TestPublicSolve(t *testing.T) {
	res, err := Solve(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Newton.Converged {
		t.Fatalf("not converged: %g -> %g", res.Newton.InitialRnorm, res.Newton.FinalRnorm)
	}
	if res.Problem.Mesh.NumVertices() < 500 {
		t.Errorf("unexpectedly small mesh: %d", res.Problem.Mesh.NumVertices())
	}
}

func TestPublicSolveParallelDeterministic(t *testing.T) {
	cfg := tinyConfig()
	cfg.Ranks = 4
	a, err := SolveParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Newton.TotalLinearIts != b.Newton.TotalLinearIts {
		t.Errorf("iteration counts differ across identical runs: %d vs %d",
			a.Newton.TotalLinearIts, b.Newton.TotalLinearIts)
	}
	if math.Abs(a.Report.Elapsed-b.Report.Elapsed) > 1e-12*a.Report.Elapsed {
		t.Errorf("modeled times differ across identical runs: %g vs %g",
			a.Report.Elapsed, b.Report.Elapsed)
	}
	if a.Newton.FinalRnorm != b.Newton.FinalRnorm {
		t.Errorf("residuals differ across identical runs")
	}
}

func TestPublicBuildOnly(t *testing.T) {
	cfg := tinyConfig()
	cfg.Ranks = 3
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Part.NParts != 3 {
		t.Errorf("partition has %d parts", p.Part.NParts)
	}
	if len(p.Halos) != 3 {
		t.Errorf("halos missing")
	}
}

func TestPublicFluxPhaseTime(t *testing.T) {
	cfg := tinyConfig()
	t1, err := FluxPhaseTime(cfg, 4, 1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := FluxPhaseTime(cfg, 4, 1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if t2 >= t1 {
		t.Errorf("second thread did not help: %g vs %g", t2, t1)
	}
	if _, err := FluxPhaseTime(cfg, 4, 2, 2, 5); err == nil {
		t.Error("2 ranks x 2 threads accepted")
	}
	if _, err := FluxPhaseTime(cfg, 1, 1, 1, 5); err == nil {
		t.Error("single node accepted")
	}
}

func TestPublicProfiles(t *testing.T) {
	for _, name := range []string{"ASCI Red", "Cray T3E", "Blue Pacific", "Origin 2000"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ProfileByName(%q): %v, %v", name, p.Name, err)
		}
	}
	if ASCIRed.ProcsPerNode != 2 {
		t.Error("ASCI Red should have two processors per node")
	}
}

func TestPublicCompressibleSecondOrder(t *testing.T) {
	cfg := tinyConfig()
	cfg.System = "compressible"
	cfg.SwitchOrderAt = 1e-2
	cfg.Newton.CFL0 = 5
	cfg.Newton.MaxSteps = 120
	res, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Newton.Converged {
		t.Fatalf("compressible order-continuation run failed: %g -> %g in %d steps",
			res.Newton.InitialRnorm, res.Newton.FinalRnorm, len(res.Newton.Steps))
	}
}
