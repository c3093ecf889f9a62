package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// claimMapHeader opens the README's claim map: one row per paper result
// (or per study that reproduces none), naming the study, the shape test,
// the EXPERIMENTS.md section and the provenance of its numbers.
const claimMapHeader = "| Result | Study | Shape test | Recorded in EXPERIMENTS.md | Numbers |"

// paperResults are the results the map must hold, each the text of a
// row's first cell up to its first colon: every table, figure and
// equation of the paper's evaluation and §2.4's tuning claims, plus the
// two results no study reproduces honestly yet.
var paperResults = []string{
	"Table 1", "Figure 3", "Equations (1)–(2)", "Table 2", "Table 3, Figure 1",
	"Figure 2", "Figure 4", "Figure 5", "Table 4", "Table 5", "§2.4 tuning claims",
	"§2.4 order continuation", "Table 5, measured",
}

// claimRow is one row of the map, its cells trimmed.
type claimRow struct {
	result, studies, tests, sections, numbers string
}

func readClaimMap(t *testing.T) []claimRow {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, ln := range lines {
		if strings.TrimSpace(ln) != claimMapHeader {
			continue
		}
		var rows []claimRow
		for _, ln := range lines[i+2:] { // skip the |---| separator
			ln = strings.TrimSpace(ln)
			if !strings.HasPrefix(ln, "|") {
				break
			}
			cells := strings.Split(strings.Trim(ln, "|"), "|")
			if len(cells) != 5 {
				t.Fatalf("claim map row has %d cells, want 5: %s", len(cells), ln)
			}
			for j := range cells {
				cells[j] = strings.TrimSpace(cells[j])
			}
			rows = append(rows, claimRow{cells[0], cells[1], cells[2], cells[3], cells[4]})
		}
		return rows
	}
	t.Fatalf("README.md has no claim map (header %q)", claimMapHeader)
	return nil
}

var backticked = regexp.MustCompile("`([^`]+)`")

// names is every backticked name of a cell ("—" has none).
func names(cell string) []string {
	var out []string
	for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
		out = append(out, m[1])
	}
	return out
}

// TestClaimMapCoversRegistry: the README's claim map has a row for every
// paper result; every registry study sits in exactly one row, and every
// study a row names is in the registry (a deleted study leaves no row
// behind); every shape test it names exists in this package, every
// section it names starts a heading of EXPERIMENTS.md, and every
// numbers cell says modeled, simulated or measured.
func TestClaimMapCoversRegistry(t *testing.T) {
	rows := readClaimMap(t)
	registry := map[string]bool{}
	for _, st := range Studies {
		registry[st.Name] = true
	}
	var tests strings.Builder
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		tests.Write(src)
	}
	experiments, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, ln := range strings.Split(string(experiments), "\n") {
		if h := strings.TrimLeft(ln, "#"); h != ln {
			headings = append(headings, strings.TrimSpace(h))
		}
	}
	isSection := func(prefix string) bool {
		for _, h := range headings {
			if strings.HasPrefix(h, prefix) {
				return true
			}
		}
		return false
	}

	results := map[string]bool{}
	rowOf := map[string]int{}
	for i, r := range rows {
		result, _, _ := strings.Cut(r.result, ":")
		results[result] = true
		for _, name := range names(r.studies) {
			if !registry[name] {
				t.Errorf("row %q names study %q, which is not in experiments.Studies", r.result, name)
			}
			if j, dup := rowOf[name]; dup {
				t.Errorf("study %q sits in rows %q and %q", name, rows[j].result, r.result)
			}
			rowOf[name] = i
		}
		for _, test := range names(r.tests) {
			if !strings.Contains(tests.String(), "\nfunc "+test+"(t *testing.T) {") {
				t.Errorf("row %q names shape test %s, which this package does not have", r.result, test)
			}
		}
		for _, sec := range strings.Split(r.sections, ";") {
			if sec = strings.TrimSpace(sec); sec != "—" && !isSection(sec) {
				t.Errorf("row %q names section %q, which starts no heading of EXPERIMENTS.md", r.result, sec)
			}
		}
		for _, p := range strings.Split(r.numbers, "+") {
			switch strings.TrimSpace(p) {
			case "modeled", "simulated", "measured", "—":
			default:
				t.Errorf("row %q: numbers %q, want modeled, simulated or measured", r.result, r.numbers)
			}
		}
	}
	for _, st := range Studies {
		if _, ok := rowOf[st.Name]; !ok {
			t.Errorf("study %q has no row in the claim map", st.Name)
		}
	}
	for _, want := range paperResults {
		if !results[want] {
			t.Errorf("paper result %q has no row in the claim map", want)
		}
	}
}
