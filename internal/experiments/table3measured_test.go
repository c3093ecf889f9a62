package experiments

import (
	"strings"
	"testing"
)

func TestTable3MeasuredShape(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("measured scaling study is too slow under the race detector")
	}
	res, err := Table3MeasuredStudy(1200, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.BlockingScatterMaxSec) != 2 ||
		len(res.BlockingScatterAvgSec) != 2 || len(res.WaitMaxFloorSec) != 2 ||
		len(res.BlockingScatterMaxFloorSec) != 2 {
		t.Fatalf("column lengths inconsistent: %+v", res)
	}
	base := res.Rows[0]
	if base.Procs != 2 || base.Speedup != 1 || base.EffOverall != 1 {
		t.Errorf("base row not normalized: %+v", base)
	}
	for i, r := range res.Rows {
		if r.LinearIts <= 0 || r.Seconds <= 0 {
			t.Errorf("row %d measured nothing: %+v", i, r)
		}
		if r.WaitMaxSec <= 0 {
			t.Errorf("row %d recorded no scatter_wait", i)
		}
		if r.PackMaxSec <= 0 {
			t.Errorf("row %d recorded no scatter_pack", i)
		}
		// The decomposition must close.
		if diff := r.EffAlg*r.EffImpl - r.EffOverall; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("row %d: eff_alg*eff_impl != eff_overall (%g)", i, diff)
		}
		if res.BlockingScatterMaxSec[i] <= 0 {
			t.Errorf("row %d blocking baseline recorded no scatter", i)
		}
		if f := res.WaitMaxFloorSec[i]; f <= 0 || f > r.WaitMaxSec*(1+1e-12) {
			t.Errorf("row %d wait floor %g vs chosen-rep max %g", i, f, r.WaitMaxSec)
		}
		if f := res.BlockingScatterMaxFloorSec[i]; f <= 0 || f > res.BlockingScatterMaxSec[i]*(1+1e-12) {
			t.Errorf("row %d blocking floor %g vs chosen-rep max %g", i, f, res.BlockingScatterMaxSec[i])
		}
	}
	if out := res.Render(); len(out) == 0 {
		t.Error("empty render")
	}
}

// TestTable2MeasuredShape: the measured Table 2 at smoke scale has a row
// per matrix and precision with positive timings, float32 factors smaller
// than float64 ones, and names the kernel family and the host.
func TestTable2MeasuredShape(t *testing.T) {
	res, err := Table2MeasuredStudy([]Table2Matrix{{400, 4, 0}, {400, 5, 1}}, 7, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Kernels == "" || res.Host == "" || res.StreamBps <= 0 {
		t.Fatalf("incomplete result: %d rows, kernels %q, host %q, STREAM %g", len(res.Rows), res.Kernels, res.Host, res.StreamBps)
	}
	for i, r := range res.Rows {
		if r.Single != (i%2 == 1) || r.B != 4+i/2 || r.Level != i/2 {
			t.Errorf("row %d is b=%d ILU(%d) single=%v", i, r.B, r.Level, r.Single)
		}
		if r.Refactor.Median <= 0 || r.Solve.Median <= 0 || r.Refactor.IQR < 0 || r.Solve.IQR < 0 || r.SolveFrac <= 0 || r.RefactorFrac <= 0 {
			t.Errorf("row %d measured nothing: %+v", i, r)
		}
		if r.Single && r.FactorBytes >= res.Rows[i-1].FactorBytes {
			t.Errorf("row %d: float32 factors take %d bytes, float64 %d", i, r.FactorBytes, res.Rows[i-1].FactorBytes)
		}
	}
	if out := res.Render(); !strings.Contains(out, "(measured)") || !strings.Contains(out, res.Kernels) {
		t.Errorf("render does not label the measurement or name the kernels:\n%s", out)
	}
}
