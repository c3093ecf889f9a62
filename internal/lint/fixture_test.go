package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Fixture packages under testdata/src/<name> carry `// want "regex"`
// comments on the lines where findings are expected; the suite must
// report exactly those findings and nothing else.

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type wantKey struct {
	file string // base name
	line int
}

func fixtureWants(t *testing.T, dir string) map[wantKey][]string {
	t.Helper()
	wants := map[wantKey][]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				k := wantKey{file: e.Name(), line: i + 1}
				wants[k] = append(wants[k], m[1])
			}
		}
	}
	return wants
}

// fixtureRun is the suite's one run over the codegen fixture module,
// shared by the tests that read it.
var fixtureRun struct {
	once     sync.Once
	findings []Finding
	err      error
}

// fixtureFindings returns the findings of the suite's run over the
// codegen fixture, its own module, that fall in the package directory
// testdata/src/<pkg>. The run goes through RunModule from the fixture's
// root, the entry point the repository gate uses, so an archive lookup
// that silently finds nothing fails the fixture's expectations.
func fixtureFindings(t *testing.T, pkg string) []Finding {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", "codegen"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := findModuleRoot(root); err != nil || got != root {
		t.Fatalf("fixture module root = %s (%v), want %s: the fixture must stay its own module so its archive carries the fixture/codegen symbols", got, err, root)
	}
	fixtureRun.once.Do(func() { fixtureRun.findings, fixtureRun.err = RunModule(root) })
	if fixtureRun.err != nil {
		t.Fatal(fixtureRun.err)
	}
	dir := filepath.Join(filepath.Dir(root), filepath.FromSlash(pkg))
	var out []Finding
	for _, f := range fixtureRun.findings {
		if filepath.Dir(f.File) == dir {
			out = append(out, f)
		}
	}
	return out
}

func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			findings := fixtureFindings(t, a.Name)
			wants := fixtureWants(t, filepath.Join("testdata", "src", a.Name))
			for _, f := range findings {
				k := wantKey{file: filepath.Base(f.File), line: f.Line}
				matched := false
				for i, w := range wants[k] {
					if regexp.MustCompile(w).MatchString(f.Message) {
						wants[k] = append(wants[k][:i], wants[k][i+1:]...)
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for k, ws := range wants {
				for _, w := range ws {
					t.Errorf("%s:%d: expected finding matching %q, got none", k.file, k.line, w)
				}
			}
		})
	}
}

// TestPragmaHygiene pins the synthetic pragma analyzer: unknown keys,
// missing reasons, and pragmas that suppress nothing are all findings,
// so the escape hatches cannot rot silently. A pragma without a reason
// must not suppress the finding under it. The fixtures are packages of
// the codegen fixture's module: pragmahygiene is held, so its bounds
// check is a real codegen finding; unheld is not, and its pragma is
// still read.
func TestPragmaHygiene(t *testing.T) {
	findings := append(fixtureFindings(t, "codegen/pragmahygiene"), fixtureFindings(t, "codegen/unheld")...)
	expect := []struct {
		line     int
		analyzer string
		substr   string
	}{
		{5, "pragma", "unknown pragma //lint:frobnicate"},
		{16, "pragma", "needs a reason"},
		{17, "codegen", "hot kernel Kernel: bounds check survives in an innermost loop"},
		{22, "pragma", "unused pragma //lint:bce-ok"},
		{6, "pragma", "unused pragma //lint:bce-ok"},
	}
	if len(findings) != len(expect) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(expect), findings)
	}
	for i, e := range expect {
		f := findings[i]
		if f.Line != e.line || f.Analyzer != e.analyzer || !strings.Contains(f.Message, e.substr) {
			t.Errorf("finding %d = %s; want line %d [%s] ~%q", i, f, e.line, e.analyzer, e.substr)
		}
	}
}

// TestCodegenFixtureFails pins the gate's failing half on the violation
// fixture: the suite run from the fixture module's own root, through
// the entry point the repository gate uses, reports the injected
// hot-loop bounds check and the lost inline. A regression that silently
// skips the fixture — an archive lookup that finds nothing, say — fails
// here rather than leaving the gate toothless.
func TestCodegenFixtureFails(t *testing.T) {
	var msgs []string
	for _, f := range fixtureFindings(t, "codegen") {
		if f.Analyzer == "codegen" {
			msgs = append(msgs, f.Message)
		}
	}
	if len(msgs) == 0 {
		t.Fatal("fixture produced no codegen findings; the gate would pass the violation fixture")
	}
	for _, want := range []string{"bounds check survives", "must-inline helper"} {
		found := false
		for _, m := range msgs {
			found = found || strings.Contains(m, want)
		}
		if !found {
			t.Errorf("fixture findings missing the injected %q violation; got:\n  %s", want, strings.Join(msgs, "\n  "))
		}
	}
}
