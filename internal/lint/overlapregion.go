package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

const (
	mpiPath  = "petscfun3d/internal/mpi"
	distPath = "petscfun3d/internal/dist"
)

// OverlapRegion protects the communication/computation overlap window —
// the span between posting a nonblocking exchange and waiting on it,
// which is where the paper's scatter fix earns its speedup. Inside a
// window the code must only compute on data it owns:
//
//   - no blocking point-to-point call (Comm.Send/Recv), no collective
//     (AllReduceSum/AllReduceMax/Barrier), no blocking Halo.Exchange,
//     and no raw channel operation — any of these serializes the
//     exchange the window exists to hide, or deadlocks outright when
//     the peer is inside its own window;
//   - no write to a buffer that is posted in the window: the fabric
//     here copies eagerly, but MPI_Isend does not, so touching a posted
//     buffer is the exact portability bug the analyzer exists to stop;
//   - a staging buffer declared outside a posting loop but written
//     inside it needs a Wait in the same iteration — otherwise
//     iteration i+1 overwrites the buffer iteration i still has posted.
//     Rebinding per iteration (buf := plan.bufs[i]) is the sanctioned
//     idiom and is exempt.
//
// Windows are function-local: Halo.Start to the matching Finish on the
// same receiver, and a local ISend/IRecv to the matching Wait. A post
// whose wait lives in another function (the persistent-plan field
// idiom) opens a window to the end of the body. Deliberate exceptions
// carry //lint:overlap-ok <reason>.
//
// This is the one protocol rule with no runtime twin: a collective or a
// blocking exchange inside the window changes timing, not values or
// completion, so no test fails on it (EXPERIMENTS.md "What the tests
// already enforce" records the seeded defects it alone catches).
var OverlapRegion = &Analyzer{
	Name:      "overlapregion",
	Doc:       "no blocking ops or posted-buffer writes inside nonblocking overlap windows",
	Invariant: "The overlap window actually overlaps (Table 3): nothing blocking, and no posted-buffer writes, between posting an exchange and waiting on it.",
	Run:       runOverlapRegion,
}

// window is one open nonblocking region within a function body.
type window struct {
	lo, hi  token.Pos             // (post end, wait begin]; hi == body end if unmatched
	bufs    map[types.Object]bool // buffers posted and not yet waited
	openPos token.Pos             // the post, for finding context
}

func runOverlapRegion(pass *Pass) {
	if pass.Pkg.Path == mpiPath {
		return // the fabric's own internals are the implementation, not a user
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		eachFuncBody(f, func(body *ast.BlockStmt) {
			checkOverlapBody(pass, info, body)
		})
	}
}

// isPostCall reports whether call posts a nonblocking operation.
func isPostCall(info *types.Info, call *ast.CallExpr) bool {
	return isMethodOn(info, call, mpiPath, "Comm", "ISend") ||
		isMethodOn(info, call, mpiPath, "Comm", "IRecv")
}

// isWaitCall reports whether call is mpi.(*Request).Wait.
func isWaitCall(info *types.Info, call *ast.CallExpr) bool {
	return isMethodOn(info, call, mpiPath, "Request", "Wait")
}

// waitReceiverMatches reports whether call is a Wait whose receiver
// resolves (through indexing) to one of the objects in objs.
func waitReceiverMatches(info *types.Info, call *ast.CallExpr, objs map[types.Object]bool) bool {
	if !isWaitCall(info, call) {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := lvalueBase(info, sel.X)
	return obj != nil && objs[obj]
}

// lvalueBase unwraps index, slice, and star expressions down to the
// identifier or selector that names the storage, returning its object
// (a local/package variable or a struct field).
func lvalueBase(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			return info.Uses[x.Sel]
		default:
			return nil
		}
	}
}

// haloCall reports whether call invokes the named method on dist.Halo
// and returns the receiver's base object.
func haloCall(info *types.Info, call *ast.CallExpr, method string) (types.Object, bool) {
	if !isMethodOn(info, call, distPath, "Halo", method) {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	obj := lvalueBase(info, sel.X)
	return obj, obj != nil
}

func checkOverlapBody(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	var windows []window

	// Halo windows: Start(prof, x) → Finish on the same receiver.
	shallowInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, ok := haloCall(info, call, "Start")
		if !ok || len(call.Args) < 2 {
			return true
		}
		w := window{lo: call.End(), hi: body.End(), openPos: call.Pos(), bufs: map[types.Object]bool{}}
		if obj := lvalueBase(info, call.Args[1]); obj != nil {
			w.bufs[obj] = true
		}
		shallowInspect(body, func(m ast.Node) bool {
			fc, ok := m.(*ast.CallExpr)
			if !ok || fc.Pos() <= call.End() || fc.Pos() >= w.hi {
				return true
			}
			if fr, ok := haloCall(info, fc, "Finish"); ok && fr == recv {
				w.hi = fc.Pos()
			}
			return true
		})
		windows = append(windows, w)
		return true
	})

	// Local request windows: obj := c.ISend/IRecv(...) → first Wait on
	// obj after the post. Field-stored posts open to the end of body.
	shallowInspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPostCall(info, call) {
			return true
		}
		if chainedWait(body, call) {
			return true // c.ISend(...).Wait(): the window is empty
		}
		w := window{lo: call.End(), hi: body.End(), openPos: call.Pos(), bufs: map[types.Object]bool{}}
		// ISend(to, tag, data): the posted buffer is arg 2.
		if len(call.Args) == 3 {
			if obj := lvalueBase(info, call.Args[2]); obj != nil {
				w.bufs[obj] = true
			}
		}
		// The bound request, when local, closes the window at its Wait.
		if obj := postBinding(info, body, call); obj != nil {
			objs := map[types.Object]bool{obj: true}
			shallowInspect(body, func(m ast.Node) bool {
				wc, ok := m.(*ast.CallExpr)
				if !ok || wc.Pos() <= call.End() || wc.Pos() >= w.hi {
					return true
				}
				if waitReceiverMatches(info, wc, objs) {
					w.hi = wc.Pos()
				}
				return true
			})
		}
		windows = append(windows, w)
		checkLoopStaging(pass, info, body, call, w.bufs)
		return true
	})

	for _, w := range windows {
		flagWindowViolations(pass, info, body, w)
	}
}

// chainedWait reports whether the post call is immediately completed
// with a chained .Wait().
func chainedWait(body *ast.BlockStmt, post *ast.CallExpr) bool {
	found := false
	shallowInspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if ok && ast.Unparen(sel.X) == ast.Expr(post) && sel.Sel.Name == "Wait" {
			found = true
		}
		return !found
	})
	return found
}

// postBinding returns the object a post call's result is bound to, when
// the binding is a simple local identifier (req := c.ISend(...)).
func postBinding(info *types.Info, body *ast.BlockStmt, post *ast.CallExpr) types.Object {
	var out types.Object
	shallowInspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != ast.Expr(post) {
			return true
		}
		if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				out = obj
			} else if obj := info.Uses[id]; obj != nil {
				out = obj
			}
		}
		return out == nil
	})
	return out
}

// flagWindowViolations reports blocking operations and posted-buffer
// writes whose position falls inside the window.
func flagWindowViolations(pass *Pass, info *types.Info, body *ast.BlockStmt, w window) {
	openLine := pass.Fset.Position(w.openPos).Line
	shallowInspect(body, func(n ast.Node) bool {
		if n.Pos() <= w.lo || n.Pos() >= w.hi {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isMethodOn(info, n, mpiPath, "Comm", "Send"),
				isMethodOn(info, n, mpiPath, "Comm", "Recv"):
				pass.ReportSuppressiblef(n.Pos(), "overlap-ok",
					"blocking point-to-point call inside the overlap window opened at line %d serializes the exchange it should hide", openLine)
			case isMethodOn(info, n, mpiPath, "Comm", "AllReduceSum"),
				isMethodOn(info, n, mpiPath, "Comm", "AllReduceMax"),
				isMethodOn(info, n, mpiPath, "Comm", "Barrier"):
				pass.ReportSuppressiblef(n.Pos(), "overlap-ok",
					"collective inside the overlap window opened at line %d synchronizes all ranks mid-exchange", openLine)
			case isMethodOn(info, n, distPath, "Halo", "Exchange"):
				pass.ReportSuppressiblef(n.Pos(), "overlap-ok",
					"blocking Halo.Exchange inside the overlap window opened at line %d", openLine)
			case isBuiltinCall(info, n, "copy"):
				if obj := lvalueBase(info, n.Args[0]); obj != nil && w.bufs[obj] {
					pass.ReportSuppressiblef(n.Pos(), "overlap-ok",
						"copy into buffer posted at line %d while the exchange is in flight; MPI_Isend buffers are off-limits until Wait", openLine)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj := lvalueBase(info, lhs); obj != nil && w.bufs[obj] {
					pass.ReportSuppressiblef(n.Pos(), "overlap-ok",
						"write to buffer posted at line %d while the exchange is in flight; MPI_Isend buffers are off-limits until Wait", openLine)
				}
			}
		case *ast.SendStmt:
			pass.ReportSuppressiblef(n.Pos(), "overlap-ok",
				"raw channel send inside the overlap window opened at line %d", openLine)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.ReportSuppressiblef(n.Pos(), "overlap-ok",
					"raw channel receive inside the overlap window opened at line %d", openLine)
			}
		case *ast.SelectStmt:
			pass.ReportSuppressiblef(n.Pos(), "overlap-ok",
				"select inside the overlap window opened at line %d", openLine)
		}
		return true
	})
}

// checkLoopStaging flags the shared-staging-buffer hazard: a post
// inside a loop whose buffer is declared outside the loop and written
// inside it, with no matching wait in the loop — iteration i+1 then
// overwrites the buffer iteration i still has posted.
func checkLoopStaging(pass *Pass, info *types.Info, body *ast.BlockStmt, post *ast.CallExpr, bufs map[types.Object]bool) {
	loop := innermostLoop(body, post.Pos())
	if loop == nil || len(bufs) == 0 {
		return
	}
	for obj := range bufs {
		if obj.Pos() >= loop.Pos() && obj.Pos() < loop.End() {
			continue // rebound per iteration: each post owns a distinct buffer
		}
		written, waited := false, false
		ast.Inspect(loop, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if o := lvalueBase(info, lhs); o == obj {
						written = true
					}
				}
			case *ast.CallExpr:
				if isBuiltinCall(info, n, "copy") {
					if o := lvalueBase(info, n.Args[0]); o == obj {
						written = true
					}
				}
				if isWaitCall(info, n) {
					waited = true
				}
			}
			return true
		})
		if written && !waited {
			pass.ReportSuppressiblef(post.Pos(), "overlap-ok",
				"buffer %s is shared across loop iterations and repacked while a previous iteration's post may still be in flight; rebind a per-iteration buffer or Wait inside the loop", obj.Name())
		}
	}
}

// innermostLoop returns the smallest for/range statement in body whose
// extent contains pos, or nil.
func innermostLoop(body *ast.BlockStmt, pos token.Pos) ast.Node {
	var best ast.Node
	shallowInspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n.Pos() <= pos && pos < n.End() {
				if best == nil || (n.Pos() >= best.Pos() && n.End() <= best.End()) {
					best = n
				}
			}
		}
		return true
	})
	return best
}
