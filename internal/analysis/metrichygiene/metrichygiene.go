// Package metrichygiene enforces metric-name hygiene in the live-engine
// packages: every instrument registered on an obs.Registry (Counter, Gauge,
// Histogram) must be named by a compile-time constant in snake_case (dots
// as namespace separators, e.g. "engine.step_wall_ns"), and registration
// must happen once at setup — never inside a loop and never with a name
// built per call. The registry interns instruments by name under a mutex,
// so a fmt.Sprintf name on a hot path both allocates and takes the lock
// every call, and a dynamically-built name fractures the metric namespace
// the OpenMetrics exporter and the dashboards depend on.
package metrichygiene

import (
	"go/ast"
	"go/constant"
	"regexp"

	"ratel/internal/analysis"
)

const obsPkg = "ratel/internal/obs"

// nameRE is the canonical metric-name shape: snake_case segments joined by
// dots, starting with a letter ("engine.step_wall_ns", "nvme.read_bytes").
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$`)

// Analyzer is the metrichygiene check.
var Analyzer = &analysis.Analyzer{
	Name: "metrichygiene",
	Doc: `metric names must be literal snake_case constants registered once

Flags obs.Registry instrument registrations (Counter, Gauge, Histogram)
whose name argument is not a compile-time string constant (fmt.Sprintf and
runtime concatenation fracture the metric namespace and allocate on hot
paths), whose name does not match ^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$, or
that sit inside a for/range loop (the registry interns by name under a
mutex — registration belongs in setup code, with the instrument handle
kept).`,
	Scope: []string{
		"ratel/internal/engine",
		"ratel/internal/nvme",
		"ratel/internal/opt",
		"ratel/internal/tensor/pool",
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		var loopDepth int
		var walk func(n ast.Node) bool
		inspectInLoop := func(nodes ...ast.Node) {
			loopDepth++
			for _, sub := range nodes {
				if sub != nil {
					ast.Inspect(sub, walk)
				}
			}
			loopDepth--
		}
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				// The init/cond/post expressions repeat with the body.
				inspectInLoop(stmtOrNil(n.Init), exprOrNil(n.Cond), stmtOrNil(n.Post), n.Body)
				return false
			case *ast.RangeStmt:
				inspectInLoop(exprOrNil(n.X), n.Body)
				return false
			case *ast.CallExpr:
				checkRegistration(pass, n, loopDepth > 0)
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return nil
}

// stmtOrNil / exprOrNil avoid typed-nil interface values from optional
// AST fields (a nil *ast.ExprStmt boxed as ast.Node is non-nil).
func stmtOrNil(s ast.Stmt) ast.Node {
	if s == nil {
		return nil
	}
	return s
}

func exprOrNil(e ast.Expr) ast.Node {
	if e == nil {
		return nil
	}
	return e
}

// checkRegistration validates one possible instrument registration call.
func checkRegistration(pass *analysis.Pass, call *ast.CallExpr, inLoop bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || analysis.FuncPkgPath(fn) != obsPkg {
		return
	}
	switch fn.Name() {
	case "Counter", "Gauge", "Histogram":
	default:
		return
	}
	// Only registry lookups take a name; the instrument types' own methods
	// (Counter.Add etc.) have different names, so arity is the remaining
	// guard against same-named helpers.
	if len(call.Args) != 1 {
		return
	}
	arg := ast.Unparen(call.Args[0])
	tv := pass.TypesInfo.Types[call.Args[0]]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		if inner, ok := arg.(*ast.CallExpr); ok && analysis.IsPkgCall(pass.TypesInfo, inner, "fmt", "Sprintf", "Sprint") {
			pass.Reportf(arg.Pos(), "metric name built with fmt.%s: metric names must be literal constants registered once at setup", analysis.CalleeFunc(pass.TypesInfo, inner).Name())
			return
		}
		pass.Reportf(arg.Pos(), "metric name is not a compile-time constant: register instruments once at setup with literal names")
		return
	}
	name := constant.StringVal(tv.Value)
	if !nameRE.MatchString(name) {
		pass.Reportf(arg.Pos(), "metric name %q is not snake_case (want ^[a-z][a-z0-9_]*(\\.[a-z0-9_]+)*$)", name)
	}
	if inLoop {
		pass.Reportf(call.Pos(), "instrument %q registered inside a loop: the registry lookup takes a lock — register once at setup and keep the handle", name)
	}
}
