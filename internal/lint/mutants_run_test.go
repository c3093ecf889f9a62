//go:build mutants

package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runtimeChecks are the failure signatures the scoreboard names as
// evidence beside the failing tests, in the order it looks for them.
var runtimeChecks = []struct{ signature, name string }{
	{"WARNING: DATA RACE", "race detector"},
	{"never waited", "mpi.Run unwaited request"},
	{"expected tag", "mpi tag mismatch"},
	{"par: Run on closed Pool", "par closed-pool panic"},
	{"par: nested Run on Pool", "par nested-Run panic"},
	{"par: Close during Run", "par Close-during-Run panic"},
	{"halo from", "halo length check"},
	{"needed rows but asked for", "plan length check"},
}

// TestMutants runs the mutation scoreboard (`make mutants`). It first
// runs each distinct package set, -run regex and race setting of the
// table on the unmutated tree, and stops if one fails: a failure the
// tree has without a mutant is no evidence against a mutant. Then each
// row is applied through `go test -overlay` — the tree is never written
// — and its packages' tests run, under the race detector unless the row
// is NoRace. It prints one
// markdown row per mutant and fails when a row's text does not apply, a
// mutant does not build, or a row of a retired analyzer (one no longer
// in Analyzers()) or of a retired rule is not caught. The rows of the
// kept rules are recorded as they come out.
func TestMutants(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, a := range Analyzers() {
		kept[a.Name] = true
	}
	control := map[string]string{} // (Pkgs, Run) key → the unmutated run's output
	for _, m := range mutants {
		key := m.controlKey()
		if _, done := control[key]; done {
			continue
		}
		out, err := goTest(root, "", m)
		if err != nil {
			t.Fatalf("control: -run %s %s fails without a mutant:\n%s", m.Run, strings.Join(m.Pkgs, " "), out)
		}
		control[key] = out
	}
	dir := t.TempDir()
	fmt.Println("| analyzer | rule | site | verdict | evidence |")
	fmt.Println("|---|---|---|---|---|")
	for i, m := range mutants {
		src, err := m.apply(root)
		if err != nil {
			t.Fatal(err)
		}
		mutated := filepath.Join(dir, fmt.Sprintf("mutant%d.go", i))
		if err := os.WriteFile(mutated, src, 0o644); err != nil {
			t.Fatal(err)
		}
		overlay, err := json.Marshal(map[string]map[string]string{
			"Replace": {filepath.Join(root, m.File): mutated},
		})
		if err != nil {
			t.Fatal(err)
		}
		overlayFile := filepath.Join(dir, fmt.Sprintf("overlay%d.json", i))
		if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
			t.Fatal(err)
		}
		out, runErr := goTest(root, overlayFile, m)
		verdict, evidence := judge(out, control[m.controlKey()], runErr)
		switch {
		case verdict == "build failed":
			t.Errorf("%s %q at %s does not build:\n%s", m.Analyzer, m.Rule, m.where(), out)
		case verdict != "caught" && (!kept[m.Analyzer] || retiredRules[m.Rule]):
			t.Errorf("%s %q at %s is %s: add the test that catches it\n%s", m.Analyzer, m.Rule, m.where(), verdict, out)
		}
		fmt.Printf("| %s | %s | %s | %s | %s |\n", m.Analyzer, m.Rule, m.where(), verdict, evidence)
	}
}

// controlKey identifies the unmutated run a row is judged against.
func (m mutant) controlKey() string {
	return fmt.Sprint(m.NoRace, "\x00", m.Run, "\x00", strings.Join(m.Pkgs, "\x00"))
}

// goTest runs m's packages and -run regex, under the race detector
// unless the row says otherwise, with the overlay file when one is
// given, and returns the combined output.
func goTest(root, overlayFile string, m mutant) (string, error) {
	args := []string{"test"}
	if overlayFile != "" {
		args = append(args, "-overlay", overlayFile)
	}
	if !m.NoRace {
		args = append(args, "-race")
	}
	args = append(args, "-count=1", "-timeout", "5m", "-run", m.Run)
	cmd := exec.Command("go", append(args, m.Pkgs...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// judge reads one mutant's `go test` output against the passing control
// run's: "caught" with the failing top-level tests and the runtime checks
// that fired (a check counts only when the control run shows no trace of
// it), "missed" when the tests pass, "build failed" when the mutant does
// not compile, and "unattributed" when the run fails without naming a
// failing test or a runtime check — a timeout or a crash outside a test,
// which a flake can produce as easily as the mutant.
func judge(out, control string, runErr error) (verdict, evidence string) {
	if runErr == nil {
		return "missed", ""
	}
	if strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]") {
		return "build failed", ""
	}
	var notes, failed []string
	for _, c := range runtimeChecks {
		if strings.Contains(out, c.signature) && !strings.Contains(control, c.signature) {
			notes = append(notes, c.name)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(line, "--- FAIL: "); ok {
			failed = append(failed, "`"+strings.Fields(name)[0]+"`")
		}
	}
	if len(notes) == 0 && len(failed) == 0 {
		return "unattributed", "the test binary exits without naming a test"
	}
	if len(failed) > 4 {
		failed = append(failed[:4], fmt.Sprintf("+%d more", len(failed)-4))
	}
	if len(failed) > 0 {
		notes = append(notes, strings.Join(failed, ", "))
	}
	return "caught", strings.Join(notes, "; ")
}
