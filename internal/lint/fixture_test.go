package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
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

func runFixture(t *testing.T, name string, hot bool) []Finding {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	path := "fixture/" + name
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name), path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	if hot {
		cfg.HotPackages = []string{path}
	}
	return Run(l.Fset, pkg, cfg, Analyzers())
}

func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		name string
		hot  bool
	}{
		{"hotalloc", true},
		{"profspan", false},
		{"costconst", false},
		{"errcheck", false},
		{"detorder", false},
		{"overlapregion", false},
		{"costsync", false},
		{"codegen", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			findings := runFixture(t, c.name, c.hot)
			wants := fixtureWants(t, filepath.Join("testdata", "src", c.name))
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
// so the escape hatches cannot rot silently.
func TestPragmaHygiene(t *testing.T) {
	findings := runFixture(t, "pragmahygiene", false)
	expect := []struct {
		line     int
		analyzer string
		substr   string
	}{
		{5, "pragma", "unknown pragma //lint:frobnicate"},
		{10, "pragma", "needs a reason"},
		{11, "errcheck", "panic in library code"},
		{15, "pragma", "unused pragma //lint:alloc-ok"},
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
