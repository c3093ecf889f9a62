package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CostSync cross-checks the cost formulas against the kernels they
// describe. The value tests pin every profiler span to its shared
// formula; CostSync closes the remaining gap — a formula that no longer
// matches the loop it models. It walks a
// kernel's innermost loop bodies, counts floating-point multiply/add
// (or load/store) operations symbolically per iteration, and verifies
// the formula's leading coefficient — the finite difference of the
// formula in its count variable — equals the counted per-iteration
// work times the declared iteration multiplicity.
//
// The registry below declares, for each audited kernel, its innermost
// loop count and which known vector calls (Dot/MDot/MAxpy) it makes: the
// marginal work is what its innermost loops do per iteration plus what
// those calls do per element. An audited kernel is a leaf — one loop, or
// a helper around one kernel call — so no entry addresses a loop by its
// position inside a larger function, and restructuring a kernel (adding
// or removing a loop) forces the registry — and with it the formula
// review — to be revisited. Equivalence entries additionally pin pairs of
// formulas that must agree (a split sweep must charge exactly what the
// full sweep charges), which is what keeps the overlap path's
// interior+boundary accounting conservative.
//
// Findings are not suppressible: a mismatch means either the kernel or
// the formula is wrong, and both are this package's to fix.
var CostSync = &Analyzer{
	Name:      "costsync",
	Doc:       "cost formula coefficients match the kernel loops they model",
	Invariant: "The cost formulas count what the kernels do: symbolic per-iteration op counts of the loop bodies match the formulas' leading coefficients.",
	Run:       runCostSync,
}

// callTerm attributes a known O(n) vector call (Dot/MDot/MAxpy) to the
// count variable: the kernel's one call to `name` contributes its
// per-element flops times `mult`.
type callTerm struct {
	name string
	mult int64
}

// knownCallFlops is the per-element flop cost of the shared vector
// kernels the audited code calls instead of open-coding.
var knownCallFlops = map[string]int64{
	"Dot":   2, // multiply + add per element
	"MDot":  2, // multiply + add per element PER BATCHED VECTOR — the callTerm mult carries k
	"MAxpy": 2, // multiply + add per element PER APPLIED VECTOR — the callTerm mult carries k
}

// knownCallBytes is the per-element memory traffic of the same calls:
// Dot streams two vectors (16). The fused multi-vector kernels are
// charged 8 bytes per stream with the stream count in the callTerm
// mult: MDot moves k+1 streams (the shared vector once plus each basis
// vector), MAxpy k+2 (each applied vector plus a read-modify-write of
// the target) — the traffic collapse that makes the fusion worth
// pinning.
var knownCallBytes = map[string]int64{
	"Dot":   16,
	"MDot":  8,
	"MAxpy": 8,
}

// coefCheck is one kernel-vs-formula coefficient verification.
type coefCheck struct {
	pkg        string // import path the kernel and formula live in
	kernel     string // "Func" or "Type.Method"
	totalLoops int    // expected innermost-loop count (structure pin)
	calls      []callTerm
	formulaPkg string // import path of the formula's package when it is not pkg (a direct import of it)
	formula    string // "Func" or "Type.Method"
	countVar   string // formula variable to differentiate
	env        map[string]int64
	bytes      bool // count 8-byte float loads/stores instead of flops
}

// equivCheck pins two formulas to the same value under matched
// assignments (e.g. a full sweep vs. the subset sweep covering it).
type equivCheck struct {
	pkg  string
	fnA  string
	envA map[string]int64
	fnB  string
	envB map[string]int64
}

// costChecks is the registry. Coefficients below are hand-derived from
// the kernels; the analyzer re-derives the kernel side on every run, so
// an edit to either side that changes the count breaks the build's lint
// gate until the other side (and this registry) agrees.
var costChecks = []coefCheck{
	// sparse: one multiply and one add per stored scalar. The unrolled
	// B=4 kernel does 32 flops per stored block (innermost k-loop);
	// MulVecFlops' marginal per ColIdx entry is 2*B*B. The same kernels
	// run MulVecAddRows' row lists, whose formula the equivalence below
	// ties to this one.
	{pkg: "petscfun3d/internal/sparse", kernel: "BCSR.mulVec4", totalLoops: 1,
		formula:  "BCSR.MulVecFlops",
		countVar: "ColIdx", env: map[string]int64{"B": 4}},
	{pkg: "petscfun3d/internal/sparse", kernel: "BCSR.mulVec5", totalLoops: 1,
		formula:  "BCSR.MulVecFlops",
		countVar: "ColIdx", env: map[string]int64{"B": 5}},

	// ilu: the one family of triangular-solve row kernels behind Solve
	// and SolvePar. Each unrolled kernel's innermost loop is the walk
	// over a row's stored off-diagonal blocks; its body is B*B
	// multiply-adds accumulated from zero plus the B subtractions from
	// the row's running value — SolveFlops' marginal per stored block
	// (2*B*B + B). The float32 instantiations are the same source.
	{pkg: "petscfun3d/internal/ilu", kernel: "forward4", totalLoops: 1,
		formula:  "Factorization.SolveFlops",
		countVar: "Col", env: map[string]int64{"B": 4, "NB": 50}},
	{pkg: "petscfun3d/internal/ilu", kernel: "backward4", totalLoops: 1,
		formula:  "Factorization.SolveFlops",
		countVar: "Col", env: map[string]int64{"B": 4, "NB": 50}},
	{pkg: "petscfun3d/internal/ilu", kernel: "forward5", totalLoops: 1,
		formula:  "Factorization.SolveFlops",
		countVar: "Col", env: map[string]int64{"B": 5, "NB": 50}},
	{pkg: "petscfun3d/internal/ilu", kernel: "backward5", totalLoops: 1,
		formula:  "Factorization.SolveFlops",
		countVar: "Col", env: map[string]int64{"B": 5, "NB": 50}},

	// krylov: the one GMRES charges its orthogonalization span with the
	// sum of the formulas of the vector kernels a step called, so the
	// registry pins the helpers every mechanism goes through, never a
	// loop position inside the solver. dots is one fused MDot pass
	// (2 flops per element per vector; one stream for the shared vector
	// plus one per vector) and, with extra = 1, one Dot, pinned at k = 1;
	// maxpy is one MAxpy sweep charged par's own formula (k applied
	// vectors plus the read-modify-write of the target); scaleInto is
	// the basis normalization (1 flop, one load and one store).
	{pkg: "petscfun3d/internal/krylov", kernel: "gmres.dots", totalLoops: 0,
		calls: []callTerm{{"MDot", 1}, {"Dot", 1}}, formula: "dotsFlops",
		countVar: "n", env: map[string]int64{"k": 1, "extra": 1}},
	{pkg: "petscfun3d/internal/krylov", kernel: "gmres.dots", totalLoops: 0,
		calls: []callTerm{{"MDot", 2}, {"Dot", 1}}, formula: "dotsBytes",
		countVar: "n", env: map[string]int64{"k": 1, "extra": 1}, bytes: true},
	{pkg: "petscfun3d/internal/krylov", kernel: "gmres.maxpy", totalLoops: 0,
		calls: []callTerm{{"MAxpy", 1}}, formulaPkg: "petscfun3d/internal/par", formula: "MAxpyFlops",
		countVar: "n", env: map[string]int64{"k": 1}},
	{pkg: "petscfun3d/internal/krylov", kernel: "gmres.maxpy", totalLoops: 0,
		calls: []callTerm{{"MAxpy", 3}}, formulaPkg: "petscfun3d/internal/par", formula: "MAxpyBytes",
		countVar: "n", env: map[string]int64{"k": 1}, bytes: true},
	{pkg: "petscfun3d/internal/krylov", kernel: "scaleInto", totalLoops: 1,
		formula:  "scaleFlops",
		countVar: "n", env: map[string]int64{}},
	{pkg: "petscfun3d/internal/krylov", kernel: "scaleInto", totalLoops: 1,
		formula:  "scaleBytes",
		countVar: "n", env: map[string]int64{}, bytes: true},

	// par fused multi-vector group-of-4 kernels: MDotFlops/MDotBytes'
	// per-element marginals at k=4 are exactly mdotSeg4's loop body
	// (8 flops; 40 bytes — the shared segment plus four basis streams),
	// and the k=1 remainder kernel mdotSeg1 carries the 2-flop/16-byte
	// marginal. maxpy4 pins MAxpyFlops/MAxpyBytes at k=4: four fused
	// compound multiply-adds (8 flops) over four streamed vectors plus
	// one read-modify-write of the target (48 bytes).
	{pkg: "petscfun3d/internal/par", kernel: "mdotSeg4", totalLoops: 1,
		formula:  "MDotFlops",
		countVar: "n", env: map[string]int64{"k": 4}},
	{pkg: "petscfun3d/internal/par", kernel: "mdotSeg4", totalLoops: 1,
		formula:  "MDotBytes",
		countVar: "n", env: map[string]int64{"k": 4}, bytes: true},
	{pkg: "petscfun3d/internal/par", kernel: "mdotSeg1", totalLoops: 1,
		formula:  "MDotFlops",
		countVar: "n", env: map[string]int64{"k": 1}},
	{pkg: "petscfun3d/internal/par", kernel: "mdotSeg1", totalLoops: 1,
		formula:  "MDotBytes",
		countVar: "n", env: map[string]int64{"k": 1}, bytes: true},
	{pkg: "petscfun3d/internal/par", kernel: "maxpy4", totalLoops: 1,
		formula:  "MAxpyFlops",
		countVar: "n", env: map[string]int64{"k": 4}},
	{pkg: "petscfun3d/internal/par", kernel: "maxpy4", totalLoops: 1,
		formula:  "MAxpyBytes",
		countVar: "n", env: map[string]int64{"k": 4}, bytes: true},

	// euler: the first-order flux kernels have every System call written
	// out, so the edge loop's arithmetic can be counted: EdgeFluxFlops(b)
	// is exactly the multiplies, divides, adds and subtracts of one edge
	// of fluxEdges4 / fluxEdges5 (square roots, absolute values and
	// comparisons are not flops here, as elsewhere in this registry). The
	// sweeps that call the kernels — Residual, ResidualEdges, the
	// threaded shard — hold no arithmetic of their own; their accounting
	// is tied to the kernels' by the equivalence check below.
	{pkg: "petscfun3d/internal/euler", kernel: "fluxEdges4", totalLoops: 1,
		formula:  "EdgeSubsetFlops",
		countVar: "nEdges", env: map[string]int64{"b": 4}},
	{pkg: "petscfun3d/internal/euler", kernel: "fluxEdges5", totalLoops: 1,
		formula:  "EdgeSubsetFlops",
		countVar: "nEdges", env: map[string]int64{"b": 5}},
	// The redundant-work-array gather of the threaded sweep: one add
	// per entry per extra private array (flops), and a read-modify-write
	// of the shared residual plus a streaming read of the private copy —
	// 24 bytes, the undercharge the 16-byte model hid.
	{pkg: "petscfun3d/internal/euler", kernel: "gatherPrivate", totalLoops: 1,
		formula:  "PrivateGatherFlops",
		countVar: "n", env: map[string]int64{"extra": 1}},
	{pkg: "petscfun3d/internal/euler", kernel: "gatherPrivate", totalLoops: 1,
		formula:  "PrivateGatherBytes",
		countVar: "n", env: map[string]int64{"extra": 1}, bytes: true},

	// Fixture package exercising the analyzer's positive and negative
	// paths (internal/lint/testdata/src/costsync).
	{pkg: "fixture/costsync", kernel: "Dot", totalLoops: 1,
		formula:  "dotFlops",
		countVar: "n", env: map[string]int64{}},
	{pkg: "fixture/costsync", kernel: "Axpy", totalLoops: 1,
		formula:  "axpyFlops",
		countVar: "n", env: map[string]int64{}},
}

var equivChecks = []equivCheck{
	// The split residual sweep must charge exactly what one full sweep
	// charges — the conservation law behind the overlap path's
	// interior+boundary phase decomposition.
	{pkg: "petscfun3d/internal/euler",
		fnA: "Discretization.SweepFlops", envA: map[string]int64{"edges": 7, "B": 5},
		fnB: "EdgeSubsetFlops", envB: map[string]int64{"nEdges": 7, "b": 5}},
	// A rank's in-place assembly charges per edge what the full assembly
	// charges.
	{pkg: "petscfun3d/internal/euler",
		fnA: "Discretization.jacobianFlops", envA: map[string]int64{"edges": 7, "B": 5},
		fnB: "LocalJacobian.Flops", envB: map[string]int64{"idx": 7, "B": 5}},
	{pkg: "petscfun3d/internal/euler",
		fnA: "Discretization.jacobianBytes", envA: map[string]int64{"edges": 7, "B": 5},
		fnB: "LocalJacobian.Bytes", envB: map[string]int64{"idx": 7, "B": 5}},
	// Likewise the row-subset matvec against the full matvec.
	{pkg: "petscfun3d/internal/sparse",
		fnA: "BCSR.MulVecFlops", envA: map[string]int64{"ColIdx": 123, "B": 4},
		fnB: "MulVecRowsFlops", envB: map[string]int64{"nnzBlocks": 123, "b": 4}},
	{pkg: "fixture/costsync",
		fnA: "fullFlops", envA: map[string]int64{"edges": 7},
		fnB: "subsetFlops", envB: map[string]int64{"nEdges": 7}},
}

func runCostSync(pass *Pass) {
	for _, c := range costChecks {
		if c.pkg == pass.Pkg.Path {
			runCoefCheck(pass, c)
		}
	}
	for _, e := range equivChecks {
		if e.pkg == pass.Pkg.Path {
			runEquivCheck(pass, e)
		}
	}
}

func runCoefCheck(pass *Pass, c coefCheck) {
	fd := findFuncDecl(pass.Pkg, c.kernel)
	if fd == nil {
		pass.Reportf(pass.Pkg.Files[0].Pos(),
			"costsync registry names kernel %s.%s which no longer exists; update internal/lint/costsync.go", c.pkg, c.kernel)
		return
	}
	loops := innermostLoops(fd.Body)
	if len(loops) != c.totalLoops {
		pass.Reportf(fd.Pos(),
			"kernel %s has %d innermost loops, the costsync registry expects %d; the loop structure changed — re-derive the cost coefficients and update internal/lint/costsync.go",
			c.kernel, len(loops), c.totalLoops)
		return
	}
	if c.formula == "" {
		return // structure pin only
	}
	var kernelCoef int64
	for _, loop := range loops {
		kernelCoef += loopWork(pass.Pkg.Info, loop, c.bytes)
	}
	for _, ct := range c.calls {
		if n := callCount(pass.Pkg.Info, fd.Body, ct.name); n != 1 {
			pass.Reportf(fd.Pos(), "kernel %s calls %s %d times, the costsync registry expects exactly one", c.kernel, ct.name, n)
			return
		}
		if c.bytes {
			kernelCoef += ct.mult * knownCallBytes[ct.name]
		} else {
			kernelCoef += ct.mult * knownCallFlops[ct.name]
		}
	}
	const base = 1000
	env := map[string]int64{}
	for k, v := range c.env {
		env[k] = v
	}
	env[c.countVar] = base
	fpkg := pass.Pkg
	if c.formulaPkg != "" {
		fpkg = pass.Pkg.Imports[c.formulaPkg]
	}
	f0, err := evalFormula(fpkg, c.formula, env)
	if err == nil {
		env[c.countVar] = base + 1
		var f1 int64
		f1, err = evalFormula(fpkg, c.formula, env)
		if err == nil {
			if marginal := f1 - f0; marginal != kernelCoef {
				kind := "flops"
				if c.bytes {
					kind = "bytes"
				}
				pass.Reportf(fd.Pos(),
					"kernel %s does %d %s per unit of %s (counted from its loops) but formula %s charges %d; the profiler's roofline accounting is drifting from the code",
					c.kernel, kernelCoef, kind, c.countVar, c.formula, marginal)
			}
			return
		}
	}
	pass.Reportf(fd.Pos(), "costsync cannot evaluate formula %s.%s: %v", c.pkg, c.formula, err)
}

func runEquivCheck(pass *Pass, e equivCheck) {
	a, errA := evalFormula(pass.Pkg, e.fnA, e.envA)
	if errA != nil {
		pass.Reportf(pass.Pkg.Files[0].Pos(), "costsync cannot evaluate formula %s.%s: %v", e.pkg, e.fnA, errA)
		return
	}
	b, errB := evalFormula(pass.Pkg, e.fnB, e.envB)
	if errB != nil {
		pass.Reportf(pass.Pkg.Files[0].Pos(), "costsync cannot evaluate formula %s.%s: %v", e.pkg, e.fnB, errB)
		return
	}
	if a != b {
		fd := findFuncDecl(pass.Pkg, e.fnB)
		pos := pass.Pkg.Files[0].Pos()
		if fd != nil {
			pos = fd.Pos()
		}
		pass.Reportf(pos,
			"formulas %s (= %d) and %s (= %d) disagree under matched assignments; the split sweep no longer charges what the full sweep charges",
			e.fnA, a, e.fnB, b)
	}
}

// findFuncDecl locates "Func" or "Type.Method" in the package.
func findFuncDecl(pkg *Package, name string) *ast.FuncDecl {
	typ, fn := "", name
	for i := range name {
		if name[i] == '.' {
			typ, fn = name[:i], name[i+1:]
			break
		}
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn {
				continue
			}
			if (typ != "") != (fd.Recv != nil) {
				continue
			}
			if typ != "" && recvTypeName(fd) != typ {
				continue
			}
			return fd
		}
	}
	return nil
}

// recvTypeName returns the receiver's type name, stripping a pointer.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// innermostLoops returns the kernel's innermost for/range statements in
// source order: loops containing no nested loop. Function literals are
// opaque (their loops belong to the literal, as in the other analyzers).
func innermostLoops(body *ast.BlockStmt) []ast.Node {
	var out []ast.Node
	shallowInspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if !containsLoop(loopBody(n)) {
				out = append(out, n)
			}
		}
		return true
	})
	return out
}

func loopBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

func containsLoop(body *ast.BlockStmt) bool {
	found := false
	shallowInspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// loopWork counts one iteration of the loop body symbolically: in flops
// mode, floating-point binary multiply/divide/add/subtract operations
// plus compound assignments; in bytes mode, 8 bytes per floating-point
// index load or store.
func loopWork(info *types.Info, loop ast.Node, bytes bool) int64 {
	var work int64
	shallowInspect(loopBody(loop), func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if !bytes && isFloatOp(info, n.Op) && exprIsFloat(info, n.X) {
				work++
			}
		case *ast.AssignStmt:
			if isFloatAssignOp(n.Tok) && len(n.Lhs) == 1 && exprIsFloat(info, n.Lhs[0]) {
				if !bytes {
					work++
				} else if _, idx := n.Lhs[0].(*ast.IndexExpr); idx {
					// A compound assignment to an element is a load and
					// a store; the IndexExpr case counts the load, this
					// adds the write-back.
					work += 8
				}
			}
		case *ast.IndexExpr:
			if bytes && exprIsFloat(info, n) {
				work += 8
			}
		}
		return true
	})
	return work
}

func isFloatOp(info *types.Info, op token.Token) bool {
	switch op {
	case token.MUL, token.QUO, token.ADD, token.SUB:
		return true
	}
	return false
}

func isFloatAssignOp(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	}
	return false
}

func exprIsFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isFloat(tv.Type)
}

// callCount returns how many calls in body have a callee named name.
func callCount(info *types.Info, body *ast.BlockStmt, name string) int {
	n := 0
	shallowInspect(body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if obj := calleeObject(info, call); obj != nil && obj.Name() == name {
				n++
			}
		}
		return true
	})
	return n
}

// evalFormula interprets a cost function symbolically: the body may be
// a sequence of simple assignments followed by one return. Identifiers,
// field selections (f.NB), len() of a field (len(a.ColIdx)), and 0-arg
// method calls (d.Sys.B()) resolve through env by their last name;
// integer conversions pass through; calls to functions of the package
// or of a module package it imports recurse.
func evalFormula(pkg *Package, name string, env map[string]int64) (int64, error) {
	if pkg == nil {
		return 0, fmt.Errorf("formula %s: its package is not a direct import", name)
	}
	fd := findFuncDecl(pkg, name)
	if fd == nil {
		return 0, fmt.Errorf("formula %s not found", name)
	}
	locals := map[string]int64{}
	for k, v := range env {
		locals[k] = v
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, pn := range field.Names {
				if _, ok := locals[pn.Name]; !ok {
					return 0, fmt.Errorf("formula %s: parameter %s not assigned", name, pn.Name)
				}
			}
		}
	}
	for _, st := range fd.Body.List {
		switch st := st.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				return 0, fmt.Errorf("formula %s: unsupported assignment shape", name)
			}
			id, ok := st.Lhs[0].(*ast.Ident)
			if !ok {
				return 0, fmt.Errorf("formula %s: unsupported assignment target", name)
			}
			v, err := evalExpr(pkg, st.Rhs[0], locals, env)
			if err != nil {
				return 0, err
			}
			locals[id.Name] = v
		case *ast.ReturnStmt:
			if len(st.Results) != 1 {
				return 0, fmt.Errorf("formula %s: want a single return value", name)
			}
			return evalExpr(pkg, st.Results[0], locals, env)
		default:
			return 0, fmt.Errorf("formula %s: unsupported statement %T", name, st)
		}
	}
	return 0, fmt.Errorf("formula %s: no return", name)
}

func evalExpr(pkg *Package, e ast.Expr, locals, env map[string]int64) (int64, error) {
	info := pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if tv, ok := info.Types[e]; ok && tv.Value != nil {
			var v int64
			if _, err := fmt.Sscan(tv.Value.ExactString(), &v); err == nil {
				return v, nil
			}
		}
		return 0, fmt.Errorf("unsupported literal %s", e.Value)
	case *ast.Ident:
		if v, ok := locals[e.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("unbound variable %s", e.Name)
	case *ast.SelectorExpr:
		if v, ok := locals[e.Sel.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("unbound field %s", e.Sel.Name)
	case *ast.UnaryExpr:
		v, err := evalExpr(pkg, e.X, locals, env)
		if err != nil {
			return 0, err
		}
		if e.Op == token.SUB {
			return -v, nil
		}
		return 0, fmt.Errorf("unsupported unary op %v", e.Op)
	case *ast.BinaryExpr:
		x, err := evalExpr(pkg, e.X, locals, env)
		if err != nil {
			return 0, err
		}
		y, err := evalExpr(pkg, e.Y, locals, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case token.ADD:
			return x + y, nil
		case token.SUB:
			return x - y, nil
		case token.MUL:
			return x * y, nil
		case token.QUO:
			if y == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return x / y, nil
		}
		return 0, fmt.Errorf("unsupported binary op %v", e.Op)
	case *ast.CallExpr:
		// len(x.F) → the count bound to F.
		if isBuiltinCall(info, e, "len") {
			return evalExpr(pkg, lenArgName(e.Args[0]), locals, env)
		}
		// Integer conversions pass through.
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			return evalExpr(pkg, e.Args[0], locals, env)
		}
		obj := calleeObject(info, e)
		if fn, ok := obj.(*types.Func); ok {
			// 0-arg method call (d.Sys.B()): resolve by method name.
			if sig := fn.Type().(*types.Signature); sig.Recv() != nil && len(e.Args) == 0 {
				if v, ok := locals[fn.Name()]; ok {
					return v, nil
				}
				return 0, fmt.Errorf("unbound method value %s()", fn.Name())
			}
			// Function of this package or of an imported one: recurse.
			home := pkg
			if fn.Pkg() != nil && fn.Pkg().Path() != pkg.Path {
				home = pkg.Imports[fn.Pkg().Path()]
			}
			if home == nil {
				return 0, fmt.Errorf("unsupported call")
			}
			if callee := findFuncDecl(home, fn.Name()); callee != nil && callee.Recv == nil {
				sub := map[string]int64{}
				i := 0
				for _, field := range callee.Type.Params.List {
					for _, pn := range field.Names {
						if i >= len(e.Args) {
							return 0, fmt.Errorf("call %s: argument count mismatch", fn.Name())
						}
						v, err := evalExpr(pkg, e.Args[i], locals, env)
						if err != nil {
							return 0, err
						}
						sub[pn.Name] = v
						i++
					}
				}
				return evalFormula(home, fn.Name(), sub)
			}
		}
		return 0, fmt.Errorf("unsupported call")
	}
	return 0, fmt.Errorf("unsupported expression %T", e)
}

// lenArgName reduces a len() argument to the ident carrying its count:
// len(a.ColIdx) → ColIdx, len(edges) → edges.
func lenArgName(e ast.Expr) ast.Expr {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return sel.Sel
	}
	return ast.Unparen(e)
}
