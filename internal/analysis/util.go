package analysis

import (
	"go/ast"
	"go/types"
)

// CalleeFunc resolves the *types.Func a call invokes (package function or
// method), or nil when the callee is a builtin, a function value, or not
// resolvable with the available type information.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Qualified identifier (pkg.Func).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// FuncPkgPath reports the import path of the package declaring fn; methods
// report their receiver type's package.
func FuncPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// IsPkgCall reports whether call invokes a function or method declared in
// the package with import path pkgPath, optionally restricted to the given
// names (any name when names is empty).
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || FuncPkgPath(fn) != pkgPath {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// UsedVar resolves an expression to the variable it names, or nil.
func UsedVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}
