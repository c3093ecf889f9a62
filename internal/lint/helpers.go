package lint

import (
	"go/ast"
	"go/types"
)

// shallowInspect walks the subtree rooted at n like ast.Inspect but
// does not descend into nested function literals: the *ast.FuncLit node
// itself is visited, its body is not.
func shallowInspect(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if !f(m) {
			return false
		}
		if _, isLit := m.(*ast.FuncLit); isLit && m != n {
			return false
		}
		return true
	})
}

// calleeObject resolves the object a call expression invokes (function,
// method, or builtin), or nil for type conversions and indirect calls
// through expressions.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	b, ok := calleeObject(info, call).(*types.Builtin)
	return ok && b.Name() == name
}

// isFloat reports whether t's underlying type is a floating-point
// scalar.
func isFloat(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
