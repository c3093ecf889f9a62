package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Codegen holds the compiled hot kernels to what the cost formulas
// price. It reads the amd64 archive the linker links (`go list -export`,
// on any host) through `go tool objdump`. Two rules:
//
//  1. No bounds check in a hot function's innermost loop: a conditional
//     branch to runtime.panicIndex/panicSlice* there is a branch and a
//     length load per iteration the roofline bytes do not price. A branch
//     is in the loop when its source line is, or — for code inlined from
//     a callee — when it lies inside the address range of a back edge
//     whose jump is on such a line.
//  2. No call to a must-inline helper: the per-iteration coefficients
//     assume those calls are flattened.
//
// Hot functions are the package's costsync kernels plus its hot list in
// codegenPackages; other packages are not disassembled. Irreducible
// sites — a gather through a data-dependent index — are waived in the
// source with audited //lint:bce-ok pragmas.
var Codegen = &Analyzer{
	Name:      "codegen",
	Doc:       "compiled hot kernels meet the codegen policy: no inner-loop bounds checks, helpers inline",
	Invariant: "The compiled kernels are what the model prices: the package archive the linker links shows no surviving innermost-loop bounds check in a hot kernel and no call to a per-edge helper that must inline.",
	Run:       runCodegen,
}

// codegenPackages is the conformance policy, keyed by package path the
// way the costsync registry is. hot names functions ("Func" or
// "Type.Method") held to the no-bounds-check rule besides the package's
// costsync kernels; mustInline names helpers no archive of a held
// package may call.
var codegenPackages = map[string]struct{ hot, mustInline []string }{
	"petscfun3d/internal/dist": {hot: []string{"rowsTask.RunShard"}},
	"petscfun3d/internal/euler": {
		hot: []string{"Discretization.BoundaryResidualMasked", "Discretization.Residual",
			"Discretization.TimeScalesInto", "Discretization.timeScales",
			"fluxEdges4", "fluxEdges5", "jacEdges4", "jacEdges5", "timeScaleEdges4", "timeScaleEdges5"},
		mustInline: []string{"Discretization.EdgeEndpoints", "Discretization.gather"},
	},
	"petscfun3d/internal/ilu": {
		hot: []string{"Factorization.numeric", "backward4", "backward5", "backwardN",
			"forward4", "forward5", "forwardN", "mulRight4", "mulRight5",
			"mulSub4", "mulSub5", "mulSubGeneric", "round32", "triTask.RunShard"},
		mustInline: []string{"axpyCol", "matMul"},
	},
	"petscfun3d/internal/krylov": {
		hot: []string{"Workspace.SolveOn", "gmres.fusedPass", "gmres.orthogonalize", "gmres.residual"},
	},
	"petscfun3d/internal/mpi": {mustInline: []string{"Comm.Rank", "Comm.Size", "Request.claim"}},
	"petscfun3d/internal/par": {
		hot: []string{"axpyRange", "axpyTask.RunShard", "combine", "combineSeg", "dotSegments",
			"maxpy4", "maxpyTask.RunShard", "mdotSeg1", "mdotSeg4", "mdotTask.RunShard"},
	},
	"petscfun3d/internal/schwarz": {hot: []string{"Preconditioner.Apply", "applyTask.RunShard"}},
	"petscfun3d/internal/sparse": {
		hot: []string{"BCSR.MulVec", "BCSR.MulVecAddRows", "BCSR.mulVecGeneric", "CSR.MulVec",
			"GatherBlocks", "bcsrMulTask.RunShard"},
		mustInline: []string{"BCSR.Block", "Dot", "Norm2", "ScalarIndex"},
	},
	"fixture/codegen": {hot: []string{"HotKernel", "vanished"}, mustInline: []string{"bigHelper", "gone", "tinyHelper"}},
}

func runCodegen(pass *Pass) {
	policy, ok := codegenPackages[pass.Pkg.Path]
	if !ok {
		return
	}
	hot := map[string]bool{}
	for _, c := range costChecks {
		if c.pkg == pass.Pkg.Path {
			hot[c.kernel] = true
		}
	}
	for _, name := range policy.hot {
		hot[name] = true
	}
	for _, name := range policy.mustInline {
		if findFuncDecl(pass.Pkg, name) == nil {
			pass.Reportf(pass.Pkg.Files[0].Pos(),
				"codegen policy names must-inline helper %s which no longer exists in %s; update codegenPackages", name, pass.Pkg.Path)
		}
	}
	spans := hotFunctionSpans(pass, hot)
	syms, err := disassemble(pass.Pkg.Dir)
	if err != nil {
		pass.Reportf(pass.Pkg.Files[0].Pos(), "codegen: %v", err)
		return
	}
	files := map[string]string{} // base name, as objdump prints it → path
	for _, f := range pass.Pkg.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		files[filepath.Base(name)] = name
	}
	mustInline := map[string]bool{}
	for pkg, p := range codegenPackages {
		for _, name := range p.mustInline {
			mustInline[pkg+"."+name] = true
		}
	}

	type site struct {
		pos  token.Position
		name string
	}
	seen := map[site]bool{}
	report := func(in inst, fallback token.Position, name, key, format string, args ...any) {
		pos := fallback
		if path, ok := files[in.file]; ok {
			pos = token.Position{Filename: path, Line: in.line, Column: 1}
		}
		if !seen[site{pos, name}] {
			seen[site{pos, name}] = true
			pass.ReportAtf(pos, key, format, args...)
		}
	}
	pkgPos := pass.Fset.Position(pass.Pkg.Files[0].Pos())
	for _, s := range syms {
		// Code on the lines of the symbol's own function or of a hot
		// function is judged by line alone; only code inlined from
		// another callee is placed in a loop by address.
		bodies := spans
		if fd := findFuncDecl(pass.Pkg, s.decl(pass.Pkg.Path)); fd != nil {
			bodies = append([]*funcSpan{spanOf(pass, "", fd)}, spans...)
		}
		at := make(map[uint64]int, len(s.insts))
		for i, in := range s.insts {
			at[in.addr] = i
		}
		for i, in := range s.insts {
			if mustInline[in.call] {
				report(in, pkgPos, in.call, "",
					"must-inline helper %s is called, not inlined, in %s — the per-iteration cost coefficients assume this call is flattened", in.call, s.name)
			}
			if !in.isJump() || in.op == "JMP" {
				continue
			}
			panicFn := reachesPanic(s.insts, at, in.target)
			if panicFn == "" && i+1 < len(s.insts) {
				panicFn = reachesPanic(s.insts, at, s.insts[i+1].addr)
			}
			if panicFn == "" {
				continue
			}
			fs, jump := innermostLoopAt(spans, in), in
			if fs == nil && !inBody(bodies, in) {
				for _, e := range s.insts {
					if e.isJump() && e.target <= in.addr && in.addr <= e.addr {
						if fs = innermostLoopAt(spans, e); fs != nil {
							jump = e // the back edge: waive there if in is from another package
							break
						}
					}
				}
			}
			if fs != nil {
				report(in, token.Position{Filename: files[jump.file], Line: jump.line, Column: 1}, fs.name, "bce-ok",
					"hot kernel %s: bounds check survives in an innermost loop (branch to %s) — an unmodeled branch and length load per iteration; add a slice-length hint or hoist the bound",
					fs.name, panicFn)
			}
		}
	}
}

// symbol is one TEXT symbol of a disassembled archive.
type symbol struct {
	name  string
	insts []inst
}

// decl returns the declaration name ("Func", "Type.Method") of a symbol
// of package path; a closure's is its enclosing function's.
func (s symbol) decl(path string) string {
	name := strings.TrimPrefix(normalizeCallee(s.name), path+".")
	name, _, _ = strings.Cut(name, ".func")
	return name
}

// inst is one disassembled instruction: its source position as objdump
// prints it (file base name and line), its address and mnemonic, the
// address a direct jump goes to, and the symbol an R_CALL relocation
// calls (normalized by normalizeCallee).
type inst struct {
	file   string
	line   int
	addr   uint64
	op     string
	target uint64
	call   string
}

func (in inst) isJump() bool { return strings.HasPrefix(in.op, "J") && in.target != 0 }

// disassemble returns the TEXT symbols of the amd64 archive the go
// command builds for the package in dir.
func disassemble(dir string) ([]symbol, error) {
	archive, err := goCommand(dir, "list", "-export", "-f", "{{.Export}}", ".")
	if err != nil {
		return nil, err
	}
	out, err := goCommand(dir, "tool", "objdump", strings.TrimSpace(string(archive)))
	return parseObjdump(string(out)), err
}

func goCommand(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Env = dir, append(os.Environ(), "GOARCH=amd64")
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, ee.Stderr)
	}
	return out, err
}

// parseObjdump reads `go tool objdump` output on amd64:
//
//	TEXT pkg.(*T).M(SB) /path/file.go
//	  file.go:12	0x1234	0f8631000000	JBE 0x126b
//	  file.go:13	0x1240	e800000000	CALL 0x1245	[1:5]R_CALL:runtime.panicIndex
func parseObjdump(out string) []symbol {
	var syms []symbol
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(line, "TEXT "); ok {
			name, _, _ = strings.Cut(name, "(SB)")
			syms = append(syms, symbol{name: name})
			continue
		}
		f := strings.Fields(line)
		if len(syms) == 0 || len(f) < 4 {
			continue
		}
		file, lineNo, _ := strings.Cut(f[0], ":")
		n, err1 := strconv.Atoi(lineNo)
		addr, err2 := strconv.ParseUint(strings.TrimPrefix(f[1], "0x"), 16, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		in := inst{file: file, line: n, addr: addr, op: f[3]}
		if len(f) > 4 && strings.HasPrefix(f[4], "0x") {
			in.target, _ = strconv.ParseUint(f[4][2:], 16, 64)
		}
		if _, callee, ok := strings.Cut(line, "R_CALL:"); ok {
			in.call = normalizeCallee(strings.Fields(callee)[0])
		}
		syms[len(syms)-1].insts = append(syms[len(syms)-1].insts, in)
	}
	return syms
}

// normalizeCallee turns a symbol such as
// "petscfun3d/internal/euler.(*Discretization).gather" or
// "pkg.f[go.shape.float64]<1>" into the "pkg/path.Type.Method" form
// codegenPackages uses.
func normalizeCallee(sym string) string {
	sym, _, _ = strings.Cut(sym, "<")
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] + sym[strings.LastIndexByte(sym, ']')+1:]
	}
	return strings.NewReplacer("(*", "", "(", "", ")", "").Replace(sym)
}

// reachesPanic follows the straight-line path from addr, through
// unconditional jumps, and returns the runtime bounds-check panic it
// calls, or "" when the path branches, returns or calls anything else
// first.
func reachesPanic(insts []inst, at map[uint64]int, addr uint64) string {
	i, ok := at[addr]
	for steps := 0; ok && steps < 16; steps++ {
		in := insts[i]
		switch {
		case in.call != "":
			if strings.HasPrefix(in.call, "runtime.panicIndex") || strings.HasPrefix(in.call, "runtime.panicSlice") {
				return in.call
			}
			return ""
		case in.op == "JMP":
			i, ok = at[in.target]
		case in.isJump() || in.op == "RET":
			return ""
		default:
			i++
			ok = i < len(insts)
		}
	}
	return ""
}

// lineSpan is a [start, end] line interval within one file.
type lineSpan struct{ start, end int }

func (s lineSpan) contains(line int) bool { return line >= s.start && line <= s.end }

// funcSpan is the textual extent of one function and its innermost
// loops, the geometry object-code positions are matched against.
type funcSpan struct {
	name  string
	file  string // base name, as objdump prints it
	body  lineSpan
	inner []lineSpan // loops containing no other loop
}

func spanOf(pass *Pass, name string, fd *ast.FuncDecl) *funcSpan {
	start, end := pass.Fset.Position(fd.Pos()), pass.Fset.Position(fd.End())
	return &funcSpan{name: name, file: filepath.Base(start.Filename), body: lineSpan{start.Line, end.Line}}
}

// inBody reports whether in lies on the lines of one of the functions.
func inBody(spans []*funcSpan, in inst) bool {
	for _, fs := range spans {
		if fs.file == in.file && fs.body.contains(in.line) {
			return true
		}
	}
	return false
}

// innermostLoopAt returns the hot function with an innermost loop on
// in's line, or nil.
func innermostLoopAt(spans []*funcSpan, in inst) *funcSpan {
	for _, fs := range spans {
		for _, s := range fs.inner {
			if fs.file == in.file && s.contains(in.line) {
				return fs
			}
		}
	}
	return nil
}

// hotFunctionSpans maps every hot function to its innermost loops; a
// hot name with no declaration is itself a finding (the policy rotted).
func hotFunctionSpans(pass *Pass, hot map[string]bool) []*funcSpan {
	names := make([]string, 0, len(hot))
	for n := range hot {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []*funcSpan
	for _, name := range names {
		fd := findFuncDecl(pass.Pkg, name)
		if fd == nil {
			pass.Reportf(pass.Pkg.Files[0].Pos(),
				"codegen policy names hot function %s which no longer exists in %s; update codegenPackages or the costsync registry",
				name, pass.Pkg.Path)
			continue
		}
		fs := spanOf(pass, name, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if body := loopBody(n); body != nil && !containsLoopDeep(body) {
				fs.inner = append(fs.inner, lineSpan{pass.Fset.Position(n.Pos()).Line, pass.Fset.Position(n.End()).Line})
			}
			return true
		})
		out = append(out, fs)
	}
	return out
}

// containsLoopDeep reports whether body contains any for/range
// statement, descending into function literals too: the matching here
// is by source line, so a loop inside a closure still makes the
// enclosing loop non-innermost.
func containsLoopDeep(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}
