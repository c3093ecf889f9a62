package experiments

import (
	"strings"
	"testing"

	"petscfun3d/internal/faults"
)

func TestChaosSweepShape(t *testing.T) {
	seeds := []int64{1, 2}
	res, err := ChaosSweepStudy(1200, 2, faults.ProfileMixed, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if res.CleanSeconds <= 0 || res.CleanIts <= 0 {
		t.Fatalf("clean baseline measured nothing: %+v", res)
	}
	if len(res.Rows) != len(seeds) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(seeds))
	}
	for i, row := range res.Rows {
		if row.Seed != seeds[i] {
			t.Errorf("row %d seed %d, want %d", i, row.Seed, seeds[i])
		}
		// The invariant ChaosEfficiency asserts internally: faults never
		// change numerics, so every run matches the clean iteration count.
		if row.LinearIts != res.CleanIts {
			t.Errorf("row %d iterations %d != clean %d", i, row.LinearIts, res.CleanIts)
		}
		if row.Seconds <= 0 || row.EtaImpl <= 0 {
			t.Errorf("row %d measured nothing: %+v", i, row)
		}
		// The mixed profile always injects some skew at 2 ranks over a
		// full GMRES solve's worth of operations.
		if row.SkewMaxSec <= 0 || row.SkewSumSec < row.SkewMaxSec {
			t.Errorf("row %d skew accounting inconsistent: max %g sum %g", i, row.SkewMaxSec, row.SkewSumSec)
		}
		if row.WaitMaxSec < 0 || row.WaitAvgSec > row.WaitMaxSec*(1+1e-12) {
			t.Errorf("row %d wait accounting inconsistent: max %g avg %g", i, row.WaitMaxSec, row.WaitAvgSec)
		}
	}
	if out := Text(res.Tables()...); !strings.Contains(out, "η_impl") {
		t.Errorf("render missing header: %q", out)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, res.Tables()[0]); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != len(seeds)+2 {
		t.Errorf("csv has %d lines, want %d", lines, len(seeds)+2)
	}
}

func TestChaosSweepRejectsPanicProfile(t *testing.T) {
	_, err := ChaosSweepStudy(600, 2, faults.ProfilePanic, []int64{1})
	if err == nil || !strings.Contains(err.Error(), "panic profile") {
		t.Fatalf("panic profile accepted: %v", err)
	}
}
