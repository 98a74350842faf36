// Package errdrop flags dropped errors from the NVMe and trace write
// paths. An nvme.Put — or any Ticket's Wait, where a transfer's error
// reaches its caller — that fails silently corrupts the state the engine
// later reads back, and an ignored trace.WriteChrome error leaves a file
// Perfetto rejects, so those calls must consume the error in non-test code:
// a call in statement position, deferred or started with go, or whose error
// result is assigned to the blank identifier, is flagged. Test files are
// exempt: tests drop errors on purpose when exercising failure paths.
package errdrop

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"ratel/internal/analysis"
)

// watchedPkgs are the import paths whose error returns must be handled.
var watchedPkgs = []string{
	"ratel/internal/nvme",
	"ratel/internal/trace",
}

// Analyzer is the errdrop check.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDropped(pass, call, "call")
				}
			case *ast.DeferStmt:
				checkDropped(pass, n.Call, "deferred call")
			case *ast.GoStmt:
				checkDropped(pass, n.Call, "go statement")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
}

// checkDropped reports a call whose entire result list — including an
// error — is discarded by statement position.
func checkDropped(pass *analysis.Pass, call *ast.CallExpr, how string) {
	fn, errAt := watchedErrCall(pass, call)
	if fn == nil || errAt < 0 {
		return
	}
	pass.Reportf(call.Pos(), "%s drops the error returned by %s.%s: a silent NVMe/trace write failure corrupts downstream state, so check or log it", how, shortPkg(fn), fn.Name())
}

// checkBlankAssign reports x, _ := nvme.Open(...)-style drops where every
// LHS slot receiving the error component is the blank identifier.
func checkBlankAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(as.Lhs) == 0 {
		return
	}
	fn, errAt := watchedErrCall(pass, call)
	if fn == nil || errAt < 0 || errAt >= len(as.Lhs) {
		return
	}
	if id, ok := as.Lhs[errAt].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(as.Pos(), "error returned by %s.%s assigned to blank identifier: a silent NVMe/trace write failure corrupts downstream state, so check or log it", shortPkg(fn), fn.Name())
	}
}

// watchedErrCall resolves call's callee; if it is declared in a watched
// package or is a Ticket's Wait, and returns an error, it and the error's
// result index are returned. Otherwise (nil, -1).
func watchedErrCall(pass *analysis.Pass, call *ast.CallExpr) (*types.Func, int) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return nil, -1
	}
	path := analysis.FuncPkgPath(fn)
	watched := slices.ContainsFunc(watchedPkgs, func(p string) bool { return path == p || strings.HasPrefix(path, p+"/") })
	if !watched && !strings.HasSuffix(fn.FullName(), "Ticket).Wait") {
		return nil, -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, -1
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return fn, i
		}
	}
	return nil, -1
}

func shortPkg(fn *types.Func) string {
	path := analysis.FuncPkgPath(fn)
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
