// Package simdet enforces determinism in the simulator/planner packages
// (internal/sim, itersim, plan, cost, strategy): the discrete-event
// simulator regenerates every figure in the paper, and its schedules must
// replay bit-identically run after run. It flags what breaks that
// guarantee silently:
//
//   - wall-clock reads (time.Now, Since, Sleep, After, Tick, ...)
//   - the global math/rand source (rand.Intn, rand.Float64, ...); a seeded
//     *rand.Rand is fine
//   - goroutine spawns, by go statement or (*join.Group).Go (schedules must
//     not depend on runtime interleaving)
//   - range over an unordered map when the loop body is order-sensitive:
//     it appends to a slice, assigns a variable declared outside the loop,
//     accumulates floating point (float addition is not associative), or
//     pushes into a container/heap
//
// The collect-keys-then-sort idiom is recognized: a map range that only
// appends keys into a slice which is subsequently passed to a sort call in
// the same block is allowed.
package simdet

import (
	"go/ast"
	"go/token"
	"go/types"

	"ratel/internal/analysis"
)

// Analyzer is the simdet check.
var Analyzer = &analysis.Analyzer{
	Name: "simdet",
	Scope: []string{
		"ratel/internal/sim",
		"ratel/internal/itersim",
		"ratel/internal/plan",
		"ratel/internal/cost",
		"ratel/internal/strategy",
	},
	Run: run,
}

// wallClockFuncs are the time package functions that read or depend on the
// wall clock. Duration arithmetic and formatting stay allowed.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// seededConstructors are the math/rand functions that build explicitly
// seeded generators rather than touching the global source.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				reportSpawn(pass, n.Pos())
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	switch analysis.FuncPkgPath(fn) {
	case "time":
		if wallClockFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(call.Pos(), "time.%s in simulator code: simulated time must come from the event clock, not the wall clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() == nil && !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(), "global rand.%s in simulator code: use an explicitly seeded *rand.Rand so runs replay", fn.Name())
		}
	case "ratel/internal/join":
		if fn.Name() == "Go" {
			reportSpawn(pass, call.Pos())
		}
	}
}

func reportSpawn(pass *analysis.Pass, pos token.Pos) {
	pass.Reportf(pos, "goroutine spawn in simulator code: schedule results must not depend on runtime interleaving")
}

// checkMapRange flags order-sensitive bodies of ranges over unordered maps.
func checkMapRange(pass *analysis.Pass, file *ast.File, rs *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rs.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}

	var appendTargets []*types.Var
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "range over unordered map: %s makes the result iteration-order dependent; iterate sorted keys", what)
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				v := analysis.UsedVar(pass.TypesInfo, id)
				if v == nil || v.Pos() >= rs.Pos() { // declared by/inside the loop
					continue
				}
				switch n.Tok {
				case token.ASSIGN:
					// x = append(x, ...) is the collect idiom, resolved below.
					if i < len(n.Rhs) && isAppendOf(pass.TypesInfo, n.Rhs[i], v) {
						appendTargets = append(appendTargets, v)
						continue
					}
					report(n.Pos(), "assignment to outer variable "+quote(id.Name))
				case token.DEFINE:
					// := with an outer var cannot happen; skip.
				default: // compound: order matters only for non-associative kinds
					if isFloat(v.Type()) {
						report(n.Pos(), "floating-point accumulation into "+quote(id.Name)+" (float addition is not associative)")
					}
				}
			}
		case *ast.IncDecStmt:
			// integer ++/-- is commutative; allowed.
		case *ast.CallExpr:
			if analysis.IsPkgCall(pass.TypesInfo, n, "container/heap", "Push") {
				report(n.Pos(), "heap.Push (heap contents become iteration-order dependent)")
			}
		}
		return true
	})

	for _, v := range appendTargets {
		if !sortedAfter(pass.TypesInfo, file, rs, v) {
			report(rs.Pos(), "append to "+quote(v.Name())+" without a subsequent sort")
		}
	}
}

func quote(s string) string { return "'" + s + "'" }

func isAppendOf(info *types.Info, e ast.Expr, v *types.Var) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	return analysis.UsedVar(info, call.Args[0]) == v
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sortedAfter reports whether, lexically after the range statement, the
// collected slice v is handed to a sort call — the sanctioned
// collect-keys-then-sort idiom.
func sortedAfter(info *types.Info, file *ast.File, rs *ast.RangeStmt, v *types.Var) bool {
	sorted := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || sorted {
			return !sorted
		}
		if analysis.IsPkgCall(info, call, "sort") || analysis.IsPkgCall(info, call, "slices") {
			for _, a := range call.Args {
				if analysis.UsedVar(info, a) == v {
					sorted = true
				}
			}
		}
		return !sorted
	})
	return sorted
}
