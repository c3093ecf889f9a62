// Package lint is a domain-aware static-analysis suite for this
// repository, built on the stdlib go/parser + go/types toolchain (the
// module is offline; no analysis framework dependency). The analyzers
// enforce the invariants the paper's performance argument rests on
// where a defect changes what a run measures, not the values a test
// observes: the cost formulas the profiler charges must match the
// kernel loops they model, coefficient by coefficient (costsync).
//
// The codegen analyzer closes the last gap between the model and the
// machine: it disassembles the hot packages' compiled archives and holds
// the kernels to the policy in codegen.go — no bounds checks surviving
// in innermost loops, and no call left to the small per-edge/per-row
// helpers that must inline.
//
// The message protocol (every request waited, tags matched), overlap
// windows that make only their halo's messages, the worker pool's
// owner-computes determinism, allocation-free steady states,
// map-order-free reductions, closed profiler spans charged their cost
// formulas, and returned errors are enforced at run time instead — by
// mpi.Run's in-flight check and tag matching, the fault plan's
// per-rank operation count, par's named panics, the bitwise
// worker-count grids, the race detector, the AllocsPerRun gates and the
// tests that read the profiler's report — and the mutation scoreboard
// in mutants_test.go shows a test failing on a seeded defect of each
// kind.
//
// A codegen bounds-check finding can be suppressed by a pragma comment
// on the offending line or the line directly above:
//
//	//lint:bce-ok <reason>
//
// The reason is mandatory, and a pragma that suppresses nothing is
// itself a finding, so escape hatches cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`

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
	Doc  string
	// Invariant is the one-line paper invariant the analyzer defends —
	// the exact string the README's analyzer table carries (a test
	// asserts the two never drift) and `fun3dlint -list` prints.
	Invariant string
	Run       func(*Pass)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CostSync,
		Codegen,
	}
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
		Pos:         position,
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
				Pos:      token.Position{Filename: pr.file, Line: pr.line, Column: 1},
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

// RunPatterns loads the packages matching patterns under the module
// rooted at root and runs the full suite — the programmatic equivalent
// of `fun3dlint ./...`.
func RunPatterns(root string, patterns []string) ([]Finding, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := l.ExpandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		all = append(all, Run(l.Fset, pkg, Analyzers())...)
	}
	return all, nil
}
