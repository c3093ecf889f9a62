package lint

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"petscfun3d/internal/codegen"
)

// TestRepositoryLintsClean is the acceptance gate: the full suite over
// the whole module (what `fun3dlint ./...` and `make lint` run) must
// report nothing. A finding here means either new code broke a
// discipline or an analyzer regressed into a false positive — both are
// failures.
func TestRepositoryLintsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		var sb strings.Builder
		for _, f := range findings {
			sb.WriteString("  ")
			sb.WriteString(f.String())
			sb.WriteString("\n")
		}
		t.Fatalf("repository does not lint clean (%d findings):\n%s", len(findings), sb.String())
	}
}

// lintWallBudget is the generous ceiling on one whole-suite source
// analysis of the repository (codegen's compiler replay excluded — it
// is budgeted by its own CI job). The suite currently runs in a few
// seconds; the ceiling exists so analyzer growth cannot quietly bloat
// the verify gate.
const lintWallBudget = 120 * time.Second

// TestLintSuiteWallTime is the wall-time guard on the static gate.
func TestLintSuiteWallTime(t *testing.T) {
	if testing.Short() {
		t.Skip("times a whole-repository analysis; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := RunPatterns(root, []string{"./..."}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > lintWallBudget {
		t.Fatalf("whole-suite lint took %v, over the %v budget; an analyzer has gotten pathologically slow", d, lintWallBudget)
	}
}

// TestRepositoryCodegenClean is the codegen-conformance acceptance
// gate, the explicit companion to TestRepositoryLintsClean: the budget
// manifest at the module root must parse, pin the running toolchain,
// and cover every costsync-registered hot package, and `fun3dlint -only
// codegen ./...` must report nothing — the swept kernels compile with
// no heap escapes, no surviving innermost-loop bounds checks, and every
// must-inline helper inlining.
func TestRepositoryCodegenClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	budget, err := codegen.LoadBudget(filepath.Join(root, codegen.BudgetFile))
	if err != nil {
		t.Fatalf("budget manifest: %v", err)
	}
	if budget.GoVersion != runtime.Version() {
		t.Fatalf("budget pins toolchain %s but this is %s; review `fun3dlint -only codegen` and re-record with `fun3dlint -update-budget`",
			budget.GoVersion, runtime.Version())
	}
	for _, c := range costChecks {
		if !strings.HasPrefix(c.pkg, "petscfun3d/") {
			continue
		}
		if _, ok := budget.Packages[c.pkg]; !ok {
			t.Errorf("costsync registry pins %s in %s, but the codegen budget does not cover that package", c.kernel, c.pkg)
		}
	}
	findings, err := RunPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, f := range findings {
		if f.Analyzer == "codegen" {
			bad = append(bad, "  "+f.String())
		}
	}
	if len(bad) > 0 {
		t.Fatalf("codegen conformance findings (%d):\n%s", len(bad), strings.Join(bad, "\n"))
	}
}
