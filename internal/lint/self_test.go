package lint

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
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

// lintWallBudget is the generous ceiling on one whole-suite analysis of
// the repository, codegen's disassembly of the hot packages' archives
// included. The suite currently runs in a few seconds; the ceiling
// exists so analyzer growth cannot quietly bloat the verify gate.
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
// gate, the explicit companion to TestRepositoryLintsClean: the policy
// covers every costsync-registered hot package, and the suite over the
// held packages reports no codegen finding — their archives hold no
// surviving innermost-loop bounds check in a hot kernel and no call to
// a must-inline helper.
func TestRepositoryCodegenClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range costChecks {
		if _, ok := codegenPackages[c.pkg]; !ok && strings.HasPrefix(c.pkg, "petscfun3d/") {
			t.Errorf("costsync registry pins %s in %s, but codegenPackages does not hold that package", c.kernel, c.pkg)
		}
	}
	var dirs []string
	for path := range codegenPackages {
		if rel, ok := strings.CutPrefix(path, "petscfun3d/"); ok {
			dirs = append(dirs, "./"+filepath.ToSlash(rel))
		}
	}
	sort.Strings(dirs)
	findings, err := RunPatterns(root, dirs)
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
