package experiments

import (
	"strings"
	"testing"
)

// TestOrthoShape: the orthogonalization study runs at smoke scale, its
// bitwise determinism gates pass across worker counts, and the fused
// mechanisms show the synchronization collapse the study exists to
// measure.
func TestOrthoShape(t *testing.T) {
	r, err := OrthoStudy(600, 2, []int{1, 2, 4}, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 { // 4 mechanisms x 3 worker counts x 1 restart
		t.Fatalf("got %d rows, want 12", len(r.Rows))
	}
	byMech := map[string]OrthoRow{}
	for _, row := range r.Rows {
		if row.Iterations != 12 || row.SolveSec <= 0 || row.BytesPerIt <= 0 {
			t.Fatalf("malformed row %+v", row)
		}
		if row.Threads == 1 {
			byMech[row.Mechanism] = row
		}
	}
	mgs, cgs, cgs2, cgs1 := byMech["mgs"], byMech["cgs"], byMech["cgs2"], byMech["cgs1"]
	// mgs synchronizes once per inner product; the fused mechanisms
	// batch every projection into one MDot round (plus the norm).
	if mgs.Reductions != mgs.InnerProds {
		t.Fatalf("mgs reductions %d != inner products %d", mgs.Reductions, mgs.InnerProds)
	}
	if cgs.Reductions != 2*cgs.Iterations {
		t.Fatalf("cgs reductions %d, want 2 per iteration (%d)", cgs.Reductions, 2*cgs.Iterations)
	}
	if cgs2.Reductions < 2*cgs2.Iterations || cgs2.Reductions > 4*cgs2.Iterations {
		t.Fatalf("cgs2 reductions %d outside [2,4] per iteration (%d its)", cgs2.Reductions, cgs2.Iterations)
	}
	if cgs1.Reductions != cgs1.Iterations {
		t.Fatalf("cgs1 reductions %d, want 1 per iteration (%d)", cgs1.Reductions, cgs1.Iterations)
	}
	if cgs.BytesPerIt >= mgs.BytesPerIt {
		t.Fatalf("cgs ortho bytes/it %.0f not below mgs %.0f", cgs.BytesPerIt, mgs.BytesPerIt)
	}
	out := r.Render()
	if !strings.Contains(out, "One-pass orthogonalization") || !strings.Contains(out, "restart=6") {
		t.Fatalf("render missing headers:\n%s", out)
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "\n"); got != 13 {
		t.Fatalf("csv has %d lines, want 13:\n%s", got, sb.String())
	}
}
