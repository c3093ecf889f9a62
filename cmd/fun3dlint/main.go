// Command fun3dlint runs the repository's domain-aware static-analysis
// suite (internal/lint): the flop-count cross-checker, plus the codegen
// conformance check (the hot packages' compiled archives, disassembled,
// hold no innermost-loop bounds check and no call to a must-inline
// helper). It is part of `make verify`;
// any finding fails the build.
//
// Usage:
//
//	fun3dlint [-json] [-only analyzer,...] [-list] [packages]
//
// Packages are module-relative patterns ("./...", "./internal/...", or
// plain package directories); the default is "./...". With -only (one
// analyzer or a comma-separated list), the
// full suite still runs (so pragma hygiene stays whole-suite) but only
// the named analyzers' findings are reported and counted toward the
// exit status. -list prints the analyzer registry with the one-line
// invariants the README table carries.
// Exit status is 1 when findings are reported, 2 on load or usage
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"petscfun3d/internal/lint"
)

// reportSchemaVersion identifies the JSON output shape so CI consumers
// can detect incompatible changes instead of misparsing them.
const reportSchemaVersion = 1

// report is the -json output: a versioned envelope, not a bare array,
// so fields can be added without breaking consumers.
type report struct {
	Schema   int            `json:"schema"`
	Findings []lint.Finding `json:"findings"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fun3dlint: ")
	asJSON := flag.Bool("json", false, "report findings as a versioned JSON object (for CI)")
	only := flag.String("only", "", "report only these analyzers' findings (comma-separated)")
	list := flag.Bool("list", false, "print the analyzer registry with its one-line invariants and exit")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		_, _ = fmt.Fprintf(out, "usage: fun3dlint [-json] [-only analyzer,...] [-list] [packages]\n")
		flag.PrintDefaults()
		_, _ = fmt.Fprintf(out, "\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			_, _ = fmt.Fprintf(out, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Invariant)
		}
		return
	}
	keep := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if !knownAnalyzer(name) {
				os.Exit(fatal(fmt.Errorf("unknown analyzer %q (see fun3dlint -h for the list)", name)))
			}
			keep[name] = true
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		os.Exit(fatal(err))
	}
	findings, err := lint.RunPatterns(root, patterns)
	if err != nil {
		os.Exit(fatal(err))
	}
	if len(keep) > 0 {
		kept := findings[:0]
		for _, f := range findings {
			if keep[f.Analyzer] {
				kept = append(kept, f)
			}
		}
		findings = kept
	}
	// Report file paths relative to the module root, the shape CI and
	// editors expect, then re-sort globally: per-package ordering is
	// stable already, but the cross-package order must not depend on
	// package load order.
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].File); err == nil {
			findings[i].File = rel
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(report{Schema: reportSchemaVersion, Findings: findings}); err != nil {
			log.Fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// knownAnalyzer reports whether name is a suite analyzer or the
// synthetic pragma-hygiene analyzer.
func knownAnalyzer(name string) bool {
	if name == "pragma" {
		return true
	}
	for _, a := range lint.Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

func fatal(err error) int {
	log.Print(err)
	return 2
}
