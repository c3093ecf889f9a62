package experiments

import (
	"strings"
	"testing"
)

func TestAblationShape(t *testing.T) {
	res, err := AblationStudy(smokeVertices)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Baseline.Converged {
		t.Fatal("baseline did not converge")
	}
	if len(res.Rows) < 8 {
		t.Fatalf("only %d rows", len(res.Rows))
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		seen[r.Parameter] = true
		if !r.Converged {
			t.Errorf("%s=%s did not converge", r.Parameter, r.Value)
		}
		if r.LinearIts <= 0 || r.FluxEvals <= 0 {
			t.Errorf("%s=%s: empty counters", r.Parameter, r.Value)
		}
	}
	for _, p := range []string{"gmres-restart", "inner-rtol", "ser-exponent", "jacobian-lag", "ilu-fill"} {
		if !seen[p] {
			t.Errorf("parameter %s missing from sweep", p)
		}
	}
	// Tighter inner tolerance must not increase Newton steps, and looser
	// must not decrease linear iterations below... (effects are problem
	// dependent; assert only internal consistency here).
	if !strings.Contains(Text(res.Tables()...), "ablation") {
		t.Error("render missing header")
	}
}
