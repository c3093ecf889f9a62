package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit the analyzers
// run over. Test files (_test.go) are excluded — tests are allowed to
// allocate, panic, and hand-roll counts.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Imports holds the module packages this one imports directly, by
	// import path (costsync follows cost formulas into them).
	Imports map[string]*Package
}

// Loader parses and type-checks packages using only the standard
// library: module-internal imports are resolved from source against the
// module root, everything else through the stdlib source importer
// (GOROOT). No network, no go command, no external dependencies — the
// loader works in the same offline sandbox the build does.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string

	std       types.ImporterFrom
	pkgs      map[string]*Package       // fully loaded module packages
	typecache map[string]*types.Package // all successfully imported packages
	loading   map[string]bool           // cycle detection
}

// NewLoader creates a loader for the module rooted at root (the
// directory containing go.mod).
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:       fset,
		ModulePath: mod,
		ModuleRoot: root,
		std:        std,
		pkgs:       map[string]*Package{},
		typecache:  map[string]*types.Package{},
		loading:    map[string]bool{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
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

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load loads the module package with the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return l.LoadDir(filepath.Join(l.ModuleRoot, rel), path)
}

// LoadDir parses and type-checks the non-test Go files of dir as the
// package with the given import path (used both for module packages and
// for test fixtures outside the module tree).
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, Imports: map[string]*Package{}}
	for _, imp := range tpkg.Imports() {
		if dep, ok := l.pkgs[imp.Path()]; ok {
			p.Imports[imp.Path()] = dep
		}
	}
	l.pkgs[path] = p
	l.typecache[path] = tpkg
	return p, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// from source under the module root, all others through the stdlib
// source importer.
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if t, ok := l.typecache[path]; ok {
		return t, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	t, err := l.std.ImportFrom(path, srcDir, 0)
	if err != nil {
		return nil, err
	}
	l.typecache[path] = t
	return t, nil
}

// ExpandPatterns resolves package patterns relative to the module root:
// "./..." (everything), "dir/..." (a subtree), or a plain package
// directory. Directories named testdata, vendor, or starting with "." or
// "_" are skipped, matching the go tool's convention.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := filepath.Join(l.ModuleRoot, strings.TrimPrefix(rest, "./"))
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != base && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := filepath.Join(l.ModuleRoot, strings.TrimPrefix(pat, "./"))
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		add(dir)
	}
	sort.Strings(dirs)
	paths := make([]string, len(dirs))
	for i, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			paths[i] = l.ModulePath
		} else {
			paths[i] = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
	}
	return paths, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
