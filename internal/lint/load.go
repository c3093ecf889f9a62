package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// Package is one parsed package: the unit the analyzers run over. Test
// files (_test.go) are excluded.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Files []*ast.File

	loader *Loader
}

// Loader parses the packages of one module with go/parser alone. No
// rule needs types: codegen reads the compiled archive, and pragma
// hygiene reads comments.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string

	// archives holds the export archives codegen found, by import path:
	// it lists the module's held packages in one go command per run.
	archives map[string]string
}

// NewLoader creates a loader for the module rooted at root (the
// directory containing go.mod).
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return &Loader{Fset: token.NewFileSet(), ModulePath: strings.TrimSpace(mod), ModuleRoot: root, archives: map[string]string{}}, nil
		}
	}
	return nil, fmt.Errorf("lint: no module directive in %s", filepath.Join(root, "go.mod"))
}

// LoadDir parses the non-test Go files of dir, a directory of the
// loader's module, as the package with the given import path; a
// directory without Go files gives a package without files.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Package{Path: path, Dir: dir, loader: l}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	return p, nil
}
