// Package lint is this repository's static gate, built on go/parser and
// `go tool objdump` alone (the module is offline; no analysis framework
// dependency, no type checker). Its one analyzer, codegen, holds the
// compiled hot kernels to what the cost formulas price: it disassembles
// the held packages' archives and finds a bounds check surviving in an
// innermost loop, a call left to a small helper that must inline, or a
// hot function whose innermost-loop count is not the one its policy
// entry in codegen.go records.
//
// Everything else is enforced by tests. The cost formulas are recounted
// from the data they charge (ilu's SolveFlops and FactorFlops, BCSR's
// MulVecFlops) and tied to their subset twins by equality tests (euler,
// sparse). The message protocol (every request waited, tags matched),
// overlap windows that make only their halo's messages, the worker
// pool's owner-computes determinism, allocation-free steady states,
// map-order-free reductions, closed profiler spans charged their cost
// formulas, and returned errors are enforced at run time — by mpi.Run's
// in-flight check and tag matching, the fault plan's per-rank operation
// count, par's named panics, the bitwise worker-count grids, the race
// detector, the AllocsPerRun gates and the tests that read the
// profiler's report. The mutation scoreboard in mutants_test.go shows a
// test failing on a seeded defect of each kind.
//
// A codegen bounds-check finding can be suppressed by a pragma comment
// on the offending line or the line directly above:
//
//	//lint:bce-ok <reason>
//
// The reason is mandatory, and a pragma that suppresses nothing is
// itself a finding, in every package of the module, so escape hatches
// cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string

	// suppressKey names the pragma kind ("bce-ok") that may suppress
	// this finding; empty means not suppressible.
	suppressKey string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	// Invariant is the one-line paper invariant the analyzer defends —
	// the exact string the README's analyzer table carries (a test
	// asserts the two never drift).
	Invariant string
	Run       func(*Pass)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Codegen}
}

// Pass carries one package through one analyzer.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos that no pragma suppresses.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportAtf(p.Fset.Position(pos), "", format, args...)
}

// ReportAtf records a finding at an explicit source position — for
// analyzers whose evidence arrives from outside the parsed FileSet (the
// codegen analyzer reports at object-code line positions). key names
// the pragma that may suppress it; empty means not suppressible.
func (p *Pass) ReportAtf(position token.Position, key, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		File:        position.Filename,
		Line:        position.Line,
		Col:         position.Column,
		Analyzer:    p.analyzer.Name,
		Message:     fmt.Sprintf(format, args...),
		suppressKey: key,
	})
}

// pragma is one //lint:<key> <reason> comment.
type pragma struct {
	file   string
	line   int
	key    string
	reason string
	used   bool
}

var pragmaRe = regexp.MustCompile(`^//lint:([a-z-]+)(?:\s+(.*))?$`)

// knownPragmaKeys are the escape hatches the suite honors.
var knownPragmaKeys = map[string]bool{
	"bce-ok": true,
}

func collectPragmas(fset *token.FileSet, files []*ast.File) []*pragma {
	var out []*pragma
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := pragmaRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, &pragma{
					file:   pos.Filename,
					line:   pos.Line,
					key:    m[1],
					reason: strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return out
}

// Run applies the analyzers to one package and returns the surviving
// findings, sorted by position: pragma-suppressed findings are removed,
// and pragma hygiene violations (unknown key, missing reason, pragma
// that suppresses nothing) are appended as findings of the synthetic
// "pragma" analyzer.
func Run(fset *token.FileSet, pkg *Package, analyzers []*Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		pass := &Pass{Fset: fset, Pkg: pkg, analyzer: a, findings: &raw}
		a.Run(pass)
	}
	pragmas := collectPragmas(fset, pkg.Files)

	var out []Finding
	for _, f := range raw {
		suppressed := false
		if f.suppressKey != "" {
			for _, pr := range pragmas {
				if pr.key == f.suppressKey && pr.file == f.File &&
					(pr.line == f.Line || pr.line == f.Line-1) {
					pr.used = true
					if pr.reason != "" {
						suppressed = true
					}
				}
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	pragmaAnalyzer := &Analyzer{Name: "pragma"}
	for _, pr := range pragmas {
		report := func(format string, args ...any) {
			out = append(out, Finding{
				File:     pr.file,
				Line:     pr.line,
				Col:      1,
				Analyzer: pragmaAnalyzer.Name,
				Message:  fmt.Sprintf(format, args...),
			})
		}
		switch {
		case !knownPragmaKeys[pr.key]:
			report("unknown pragma //lint:%s", pr.key)
		case pr.reason == "":
			report("pragma //lint:%s needs a reason", pr.key)
		case !pr.used:
			report("unused pragma //lint:%s suppresses nothing", pr.key)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// RunModule runs the suite over every package of the module rooted at
// root: codegen disassembles the packages it holds, and pragma hygiene
// reads every non-test file. Directories named testdata or vendor, or
// starting with "." or "_", are skipped, as the go tool skips them.
func RunModule(root string) ([]Finding, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	var all []Finding
	err = filepath.WalkDir(l.ModuleRoot, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return err
		}
		path := l.ModulePath
		if rel != "." {
			if name := d.Name(); name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, path)
		if err == nil && len(pkg.Files) > 0 {
			all = append(all, Run(l.Fset, pkg, Analyzers())...)
		}
		return err
	})
	return all, err
}
