package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// lintWallBudget is the generous ceiling on one analysis of the
// repository, codegen's disassembly of the held packages' archives
// included. The analysis runs in a few seconds; the ceiling exists so
// analyzer growth cannot quietly bloat the verify gate.
const lintWallBudget = 120 * time.Second

// repoRun is the suite's one analysis of the repository, shared by the
// tests that read it, so the static gate costs one run per test binary.
var repoRun struct {
	once     sync.Once
	findings []Finding
	wall     time.Duration
	err      error
}

// repositoryRun returns the findings of the suite
// over the whole module — codegen over the packages it holds, pragma
// hygiene over every non-test file — and how long that run took.
func repositoryRun(t *testing.T) ([]Finding, time.Duration) {
	t.Helper()
	repoRun.once.Do(func() {
		root, err := findModuleRoot(".")
		if err != nil {
			repoRun.err = err
			return
		}
		start := time.Now()
		repoRun.findings, repoRun.err = RunModule(root)
		repoRun.wall = time.Since(start)
	})
	if repoRun.err != nil {
		t.Fatal(repoRun.err)
	}
	return repoRun.findings, repoRun.wall
}

// TestRepositoryLintsClean is the static gate, and `make race` the one
// place that runs it: the suite over the whole module must report
// nothing. A finding here means either new code broke a discipline or
// an analyzer regressed into a false positive; both are failures.
func TestRepositoryLintsClean(t *testing.T) {
	findings, _ := repositoryRun(t)
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

// TestLintSuiteWallTime is the wall-time guard on the static gate: the
// repository's one analysis stays within its budget.
func TestLintSuiteWallTime(t *testing.T) {
	if _, d := repositoryRun(t); d > lintWallBudget {
		t.Fatalf("the analysis took %v, over the %v budget; an analyzer has gotten pathologically slow", d, lintWallBudget)
	}
}

// TestRepositoryCodegenClean is the codegen-conformance gate: the
// repository's analysis reports no codegen finding — no surviving
// innermost-loop bounds check in a hot kernel, no call to a must-inline
// helper, no hot kernel whose loop count drifted from its entry, and no
// held package the go command cannot list.
func TestRepositoryCodegenClean(t *testing.T) {
	findings, _ := repositoryRun(t)
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

// TestAnalyzerSuite pins the suite roster — codegen, the analyzer no
// test replaces — and that the pragma keys are exactly those of the
// suppressible rules.
func TestAnalyzerSuite(t *testing.T) {
	want := []string{"codegen"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, a.Name, want[i])
		}
		if a.Invariant == "" {
			t.Errorf("analyzer %s has no one-line invariant (the README table sources it)", a.Name)
		}
	}
	keys := []string{"bce-ok"}
	if len(knownPragmaKeys) != len(keys) {
		t.Errorf("%d pragma keys registered, want %d", len(knownPragmaKeys), len(keys))
	}
	for _, key := range keys {
		if !knownPragmaKeys[key] {
			t.Errorf("pragma key %s not registered", key)
		}
	}
}

// findModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
