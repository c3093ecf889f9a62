package core

import (
	"testing"

	"petscfun3d/internal/perfmodel"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NX, cfg.NY, cfg.NZ = 7, 6, 5
	cfg.Newton.RelTol = 1e-6
	cfg.Newton.MaxSteps = 60
	return cfg
}

func TestBuildValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.System = "magnetohydrodynamic"
	if _, err := Build(cfg); err == nil {
		t.Error("unknown system accepted")
	}
	cfg = smallConfig()
	cfg.Ranks = 4
	cfg.Partitioner = "metis"
	if _, err := Build(cfg); err == nil {
		t.Error("unknown partitioner accepted")
	}
}

func TestBuildOrderContinuationPair(t *testing.T) {
	cfg := smallConfig()
	cfg.SwitchOrderAt = 1e-2
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Disc.Opts.Order != 1 || p.Disc2 == nil || p.Disc2.Opts.Order != 2 {
		t.Error("order continuation pair not built")
	}
}

func TestRunSequentialConverges(t *testing.T) {
	res, err := RunSequential(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Newton.Converged {
		t.Fatalf("sequential run did not converge: %g -> %g",
			res.Newton.InitialRnorm, res.Newton.FinalRnorm)
	}
	if res.WallTime <= 0 || res.PerStep <= 0 {
		t.Error("no wall time measured")
	}
	if res.Precond == nil {
		t.Error("preconditioner not captured")
	}
}

func TestRunSequentialCompressible(t *testing.T) {
	cfg := smallConfig()
	cfg.System = "compressible"
	cfg.Newton.CFL0 = 5
	cfg.Newton.MaxSteps = 90
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Newton.Converged {
		t.Error("compressible run did not converge")
	}
}

func TestRunParallelBasics(t *testing.T) {
	cfg := smallConfig()
	cfg.Ranks = 4
	res, err := RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Newton.Converged {
		t.Fatal("parallel run did not converge")
	}
	rep := res.Report
	if rep.Elapsed <= 0 || rep.Compute <= 0 {
		t.Errorf("no modeled time: %+v", rep)
	}
	if rep.Scatter <= 0 {
		t.Error("no scatter time modeled")
	}
	if rep.Reduce <= 0 {
		t.Error("no reduction time modeled")
	}
	if res.HaloBytesPerExchange <= 0 {
		t.Error("no halo volume")
	}
	if res.MaxVerticesPerRank < res.MinVerticesPerRank || res.MinVerticesPerRank < 1 {
		t.Error("partition size stats wrong")
	}
	if rep.Gflops <= 0 {
		t.Error("no Gflop/s rating")
	}
}

func TestRunParallelRejectsOneRank(t *testing.T) {
	cfg := smallConfig()
	cfg.Ranks = 1
	if _, err := RunParallel(cfg); err == nil {
		t.Error("1-rank parallel run accepted")
	}
}

func TestParallelIterationsGrowWithRanks(t *testing.T) {
	// The η_alg mechanism of Table 3: same problem, more subdomains,
	// more total linear iterations.
	cfg := smallConfig()
	cfg.NX, cfg.NY, cfg.NZ = 9, 8, 6
	its := func(ranks int) int {
		c := cfg
		c.Ranks = ranks
		res, err := RunParallel(c)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Newton.Converged {
			t.Fatalf("ranks=%d did not converge", ranks)
		}
		return res.Newton.TotalLinearIts
	}
	i2, i16 := its(2), its(16)
	if i16 <= i2 {
		t.Errorf("iterations did not grow with ranks: %d (2) vs %d (16)", i2, i16)
	}
}

func TestParallelModeledSpeedup(t *testing.T) {
	// Modeled elapsed time must drop substantially from 2 to 8 ranks on
	// a balanced problem (not necessarily ideally — communication and
	// iteration growth eat some).
	cfg := smallConfig()
	cfg.NX, cfg.NY, cfg.NZ = 10, 8, 7
	elapsed := func(ranks int) float64 {
		c := cfg
		c.Ranks = ranks
		res, err := RunParallel(c)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.Elapsed
	}
	t2, t8 := elapsed(2), elapsed(8)
	if t8 >= t2 {
		t.Errorf("no modeled speedup: %g (2 ranks) vs %g (8 ranks)", t2, t8)
	}
	if t2/t8 > 4.5 {
		t.Errorf("speedup %g exceeds ideal 4x by too much", t2/t8)
	}
}

func TestParallelProfilesDiffer(t *testing.T) {
	cfg := smallConfig()
	cfg.Ranks = 4
	run := func(p perfmodel.Profile) float64 {
		c := cfg
		c.Profile = p
		res, err := RunParallel(c)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.Elapsed
	}
	tRed := run(perfmodel.ASCIRed)
	tT3E := run(perfmodel.CrayT3E)
	if tRed == tT3E {
		t.Error("machine profiles produce identical modeled times")
	}
	if tT3E >= tRed {
		t.Errorf("T3E (faster nodes) modeled slower than ASCI Red: %g vs %g", tT3E, tRed)
	}
}

func TestPWayPartitionerRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Ranks = 8
	cfg.Partitioner = "pway"
	res, err := RunParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Newton.Converged {
		t.Error("pway run did not converge")
	}
	// Near-perfect balance by construction.
	if res.MaxVerticesPerRank-res.MinVerticesPerRank > 1 {
		t.Errorf("pway imbalance: %d..%d", res.MinVerticesPerRank, res.MaxVerticesPerRank)
	}
}

func TestRunSequentialViscous(t *testing.T) {
	cfg := smallConfig()
	cfg.Viscosity = 0.02
	res, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Newton.Converged {
		t.Fatalf("viscous run did not converge: %g -> %g",
			res.Newton.InitialRnorm, res.Newton.FinalRnorm)
	}
}
