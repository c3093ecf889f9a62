package experiments

import (
	"strings"
	"testing"
)

// TestThreadsShape: the scaling study runs at smoke scale, its
// correctness gates (bitwise tri-solve/SpMV/dot, deterministic flux)
// pass, and the result carries the level-schedule statistics.
func TestThreadsShape(t *testing.T) {
	r, err := ThreadsStudy(600, 2, 2, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(r.Rows))
	}
	if r.Rows[0].Threads != 1 || r.Rows[0].FluxSpeed != 1 || r.Rows[0].TriSpeed != 1 {
		t.Fatalf("baseline row malformed: %+v", r.Rows[0])
	}
	for _, row := range r.Rows {
		if row.FluxSec <= 0 || row.TriSolveSec <= 0 || row.SpMVSec <= 0 || row.DotSec <= 0 {
			t.Fatalf("threads=%d: nonpositive timing %+v", row.Threads, row)
		}
	}
	st := r.Levels
	if st.Rows != r.Vertices || st.FwdLevels < 1 || st.BwdLevels < 1 || st.MaxWidth < 1 {
		t.Fatalf("level stats malformed: %+v", st)
	}
	out := Text(r.Tables()...)
	if !strings.Contains(out, "thread scaling") || !strings.Contains(out, "level schedule") {
		t.Fatalf("render missing headers:\n%s", out)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, r.Tables()[0]); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != 4 {
		t.Fatalf("csv has %d lines, want 4:\n%s", got, sb.String())
	}
}
