package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readmeAnalyzerRows extracts the analyzer→invariant table from the
// repository README: the rows following the "| Analyzer | Paper
// invariant |" header, as (name, invariant) pairs.
func readmeAnalyzerRows(t *testing.T) [][2]string {
	t.Helper()
	root, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, ln := range lines {
		if strings.TrimSpace(ln) != "| Analyzer | Paper invariant |" {
			continue
		}
		var rows [][2]string
		for _, row := range lines[i+2:] { // skip the |---|---| separator
			row = strings.TrimSpace(row)
			if !strings.HasPrefix(row, "|") {
				break
			}
			parts := strings.Split(row, "|")
			if len(parts) != 4 {
				t.Fatalf("malformed analyzer table row %q", row)
			}
			name := strings.Trim(strings.TrimSpace(parts[1]), "`")
			rows = append(rows, [2]string{name, strings.TrimSpace(parts[2])})
		}
		return rows
	}
	t.Fatal("README.md has no analyzer table header")
	return nil
}

// TestREADMEAnalyzerTable pins the README's analyzer table to the
// registry: same analyzers, same reporting order, and cell text equal
// to the analyzers' Invariant strings — one source of truth, asserted
// instead of drifting.
func TestREADMEAnalyzerTable(t *testing.T) {
	rows := readmeAnalyzerRows(t)
	reg := Analyzers()
	if len(rows) != len(reg) {
		t.Fatalf("README table has %d analyzers, registry has %d", len(rows), len(reg))
	}
	for i, a := range reg {
		if rows[i][0] != a.Name {
			t.Errorf("README row %d is %q, registry order says %q", i, rows[i][0], a.Name)
			continue
		}
		if rows[i][1] != a.Invariant {
			t.Errorf("README invariant for %s drifted from the registry:\n  README:   %s\n  registry: %s",
				a.Name, rows[i][1], a.Invariant)
		}
	}
}
