// Package gojoin guards the goroutine-lifecycle discipline of the pipeline
// packages: every `go` statement spawns a worker whose completion signal —
// a WaitGroup.Done, the end of a range over its input channel, a close or
// send on a done channel — is held in a struct field or package variable and
// joined somewhere in the package: a Wait, a close of the ranged channel, a
// receive. An unjoined goroutine outlives its owner: construction-error
// paths leak workers, tests pass while work races the process exit, and
// shutdown deadlocks wait on workers nobody can stop.
package gojoin

import (
	"go/ast"
	"go/token"
	"go/types"

	"ratel/internal/analysis"
)

// Analyzer is the gojoin check.
var Analyzer = &analysis.Analyzer{
	Name: "gojoin",
	Doc: `every go statement needs a field-held completion signal joined in the package

Resolves each spawned function (literal or same-package declaration) and
extracts its completion signals: WaitGroup.Done, ranging over an input
channel, or closing/sending on a completion channel. Each signal must name a
struct field or package-level variable and be matched by a join somewhere in
the package: the WaitGroup Wait-ed, the completion channel received. A
worker that ranges over a channel additionally requires a close of that
channel somewhere in the package — without one the worker can never exit.
Exactness: spawns of dynamic function values are flagged (no body to
inspect); a signal on a function-local variable or a parameter counts for
nothing, so a function-local spawn is a finding — proving its join needs
every path out of the function, and the packages in scope hold every
worker in a field joined at shutdown; receives inside loops count as
range-style consumption for joining but carry no close obligation.`,
	Scope: []string{
		"ratel/internal/engine",
		"ratel/internal/nvme",
		"ratel/internal/opt",
		"ratel/internal/tensor/pool",
	},
	Run: run,
}

// signal is one completion mechanism the spawned body uses.
type signal struct {
	kind string // "wg" (WaitGroup.Done), "range" (ranges input channel), "recv" (receives in a loop), "done" (close/send at completion)
	v    *types.Var
}

func run(pass *analysis.Pass) error {
	decls := declBodies(pass)
	joins := collectPackageJoins(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				check(pass, g, decls, joins)
			}
			return true
		})
	}
	return nil
}

// declBodies maps each declared function/method to its body so `go f()`
// and `go s.loop()` spawns can be resolved.
func declBodies(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					m[fn] = fd
				}
			}
		}
	}
	return m
}

// packageJoins are the join edges visible anywhere in the package,
// collected once: which WaitGroups are waited, which channels are closed,
// and which channels are received from.
type packageJoins struct {
	waited   map[*types.Var]bool
	closed   map[*types.Var]bool
	received map[*types.Var]bool
}

// has reports whether the package holds the join s needs: a Wait for a
// WaitGroup, a receive for a done channel, a close for an input channel.
func (j *packageJoins) has(s signal) bool {
	switch s.kind {
	case "wg":
		return j.waited[s.v]
	case "done":
		return j.received[s.v]
	}
	return j.closed[s.v]
}

func collectPackageJoins(pass *analysis.Pass) *packageJoins {
	j := &packageJoins{
		waited:   make(map[*types.Var]bool),
		closed:   make(map[*types.Var]bool),
		received: make(map[*types.Var]bool),
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if v, ok := waitGroupCall(info, n, "Wait"); ok {
					j.waited[v] = true
				}
				if v := closedChan(info, n); v != nil {
					j.closed[v] = true
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if v := resolveVar(info, n.X); v != nil {
						j.received[v] = true
					}
				}
			case *ast.RangeStmt:
				if isChan(info, n.X) {
					if v := resolveVar(info, n.X); v != nil {
						j.received[v] = true
					}
				}
			}
			return true
		})
	}
	return j
}

func check(pass *analysis.Pass, g *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl, joins *packageJoins) {
	spawned := spawnedBody(pass, g.Call, decls)
	if spawned == nil {
		pass.Reportf(g.Pos(), "cannot resolve the function spawned here: a dynamic spawn has no verifiable join edge")
		return
	}
	joined := false
	var unjoined *signal
	for _, s := range collectSignals(pass.TypesInfo, spawned) {
		switch {
		case joins.has(s):
			joined = true
		case s.kind == "range":
			// Termination obligation: a range worker needs its input closed,
			// independent of how the goroutine is otherwise joined.
			pass.Reportf(g.Pos(), "worker goroutine ranges over %q but nothing in the package closes it: the worker can never exit and shutdown joins deadlock", s.v.Name())
			return
		case s.kind != "recv" && unjoined == nil:
			unjoined = &s
		}
	}
	switch {
	case joined:
	case unjoined == nil:
		pass.Reportf(g.Pos(), "goroutine has no join: no WaitGroup, channel close or send held in a struct field or package variable signals its completion (a function-local signal does not count)")
	case unjoined.kind == "wg":
		pass.Reportf(g.Pos(), "goroutine signals %s.Done but nothing in the package calls %s.Wait: the spawn has no join edge", unjoined.v.Name(), unjoined.v.Name())
	default:
		pass.Reportf(g.Pos(), "goroutine signals completion on %q but nothing receives it: the spawn has no join edge", unjoined.v.Name())
	}
}

// spawnedBody resolves the body the go statement runs: a function literal
// directly, or a same-package declaration. nil means the callee is a dynamic
// value.
func spawnedBody(pass *analysis.Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) *ast.BlockStmt {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fd := decls[analysis.CalleeFunc(pass.TypesInfo, call)]; fd != nil {
		return fd.Body
	}
	return nil
}

// collectSignals extracts the completion signals of a spawned body.
func collectSignals(info *types.Info, body *ast.BlockStmt) []signal {
	var out []signal
	seen := make(map[signal]bool)
	add := func(kind string, v *types.Var) {
		if s := (signal{kind: kind, v: v}); v != nil && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	loopDepth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loopDepth++
			ast.Inspect(n.Body, walk)
			loopDepth--
			return false
		case *ast.RangeStmt:
			if isChan(info, n.X) {
				add("range", resolveVar(info, n.X))
			}
			loopDepth++
			ast.Inspect(n.Body, walk)
			loopDepth--
			return false
		case *ast.CallExpr:
			if v, ok := waitGroupCall(info, n, "Done"); ok {
				add("wg", v)
			}
			if v := closedChan(info, n); v != nil {
				add("done", v)
			}
		case *ast.SendStmt:
			add("done", resolveVar(info, n.Chan))
		case *ast.UnaryExpr:
			// A receive inside the worker's loop consumes an input channel
			// range-style: closing that channel is a join, but the close
			// obligation is not implied (the loop may exit other ways).
			if n.Op == token.ARROW && loopDepth > 0 {
				add("recv", resolveVar(info, n.X))
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return out
}

// waitGroupCall matches wg.<method>() where wg resolves to a
// sync.WaitGroup variable or field.
func waitGroupCall(info *types.Info, call *ast.CallExpr, method string) (*types.Var, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	if !analysis.NamedType(info.TypeOf(sel.X), "sync", "WaitGroup") {
		return nil, false
	}
	v := resolveVar(info, sel.X)
	if v == nil {
		return nil, false
	}
	return v, true
}

// closedChan matches close(ch) and resolves the channel variable.
func closedChan(info *types.Info, call *ast.CallExpr) *types.Var {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return nil
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
		return nil
	}
	if len(call.Args) != 1 {
		return nil
	}
	return resolveVar(info, call.Args[0])
}

// resolveVar maps an expression to the struct field or package-level
// variable it names. A function-local variable or parameter resolves to nil:
// a signal or join on one counts for nothing (see the Analyzer's Doc).
func resolveVar(info *types.Info, e ast.Expr) *types.Var {
	var v *types.Var
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ = info.Uses[e].(*types.Var)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			v, _ = sel.Obj().(*types.Var)
		} else {
			v, _ = info.Uses[e.Sel].(*types.Var)
		}
	}
	if v != nil && !v.IsField() && (v.Pkg() == nil || v.Parent() != v.Pkg().Scope()) {
		return nil
	}
	return v
}

func isChan(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
