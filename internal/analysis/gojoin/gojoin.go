// Package gojoin guards the goroutine-lifecycle discipline of the pipeline
// packages: every `go` statement must have a join edge — a WaitGroup.Wait,
// a channel close that terminates a range worker, or a receive of the
// goroutine's completion signal — reachable from every non-panic exit of
// the spawning function (or, for long-lived workers joined at shutdown,
// anywhere in the package). An unjoined goroutine outlives its spawner:
// construction-error paths leak writers, tests pass while work races the
// process exit, and shutdown deadlocks wait on workers nobody can stop.
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
	Doc: `every go statement needs a join edge on all non-panic exits

Resolves each spawned function (literal or same-package declaration) and
extracts its completion signals: WaitGroup.Done, ranging over an input
channel, or closing/sending on a completion channel. Each signal is then
matched to a join: field and package-level WaitGroups must be Wait-ed and
completion channels received somewhere in the package; function-local ones
must be joined on every path from the spawn to the function's normal exit
(the defer chain counts, the panic exit is exempt). A worker that ranges
over a channel additionally requires a close of that channel somewhere in
the package — without one the worker can never exit. Exactness: spawns of
dynamic function values are flagged (no body to inspect); a local
WaitGroup or channel handed to another function or returned is assumed
joined by its new owner; receives inside loops count as range-style
consumption for joining but carry no close obligation.`,
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
	kind string // "wg" (WaitGroup.Done), "range" (ranges input channel), "done" (close/send at completion)
	v    *types.Var
}

func run(pass *analysis.Pass) error {
	decls := declBodies(pass)
	joins := collectPackageJoins(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body == nil {
				return true
			}
			cfg := pass.FuncCFG(body)
			for _, g := range cfg.GoSpawns {
				check(pass, cfg, body, g, decls, joins)
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

func check(pass *analysis.Pass, cfg *analysis.CFG, body *ast.BlockStmt, g *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl, joins *packageJoins) {
	spawned, params := spawnedBody(pass, g.Call, decls)
	if spawned == nil {
		pass.Reportf(g.Pos(), "cannot resolve the function spawned here: a dynamic spawn has no verifiable join edge")
		return
	}
	signals := collectSignals(pass, spawned, params, g.Call)

	joined := false
	var partial, unjoinedSig *signal
	for i := range signals {
		s := &signals[i]
		switch s.kind {
		case "range":
			// Termination obligation: a range worker needs its input closed,
			// independent of how the goroutine is otherwise joined.
			if !joins.closed[s.v] {
				pass.Reportf(g.Pos(), "worker goroutine ranges over %q but nothing in the package closes it: the worker can never exit and shutdown joins deadlock", s.v.Name())
				return
			}
			joined = true
		case "recv":
			if joins.closed[s.v] {
				joined = true
			}
		case "wg":
			if isLocal(pass, s.v) {
				switch localJoin(pass, cfg, body, g, s, isWaitOn) {
				case joinAll:
					joined = true
				case joinSome:
					partial = s
				case joinNone:
					if unjoinedSig == nil {
						unjoinedSig = s
					}
				}
			} else if joins.waited[s.v] {
				joined = true
			} else if unjoinedSig == nil {
				unjoinedSig = s
			}
		case "done":
			if isLocal(pass, s.v) {
				switch localJoin(pass, cfg, body, g, s, isRecvFrom) {
				case joinAll:
					joined = true
				case joinSome:
					partial = s
				case joinNone:
					if unjoinedSig == nil {
						unjoinedSig = s
					}
				}
			} else if joins.received[s.v] {
				joined = true
			} else if unjoinedSig == nil {
				unjoinedSig = s
			}
		}
	}
	if joined {
		return
	}
	switch {
	case partial != nil && partial.kind == "wg":
		pass.Reportf(g.Pos(), "goroutine is not joined on every path: a return path skips %s.Wait", partial.v.Name())
	case partial != nil:
		pass.Reportf(g.Pos(), "goroutine is not joined on every path: a return path skips the receive from %q", partial.v.Name())
	case unjoinedSig != nil && unjoinedSig.kind == "wg":
		pass.Reportf(g.Pos(), "goroutine signals %s.Done but nothing in the package calls %s.Wait: the spawn has no join edge", unjoinedSig.v.Name(), unjoinedSig.v.Name())
	case unjoinedSig != nil:
		pass.Reportf(g.Pos(), "goroutine signals completion on %q but nothing receives it: the spawn has no join edge", unjoinedSig.v.Name())
	default:
		pass.Reportf(g.Pos(), "goroutine has no join: it signals completion through no WaitGroup, channel close, or send a caller could wait on")
	}
}

// spawnedBody resolves the body the go statement runs: a function literal
// directly, or a same-package declaration (params returned for arg
// substitution). nil means the callee is a dynamic value.
func spawnedBody(pass *analysis.Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) (*ast.BlockStmt, *types.Tuple) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body, nil
	}
	if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil {
		if fd := decls[fn]; fd != nil {
			sig, _ := fn.Type().(*types.Signature)
			if sig != nil {
				return fd.Body, sig.Params()
			}
			return fd.Body, nil
		}
	}
	return nil, nil
}

// collectSignals extracts the completion signals of a spawned body. When
// the body belongs to a declared function, signal variables that are its
// parameters are substituted with the spawn-site arguments so local joins
// are checked against the caller's variables; a parameter that cannot be
// mapped back drops the signal (assumed joined by the callee's contract).
func collectSignals(pass *analysis.Pass, body *ast.BlockStmt, params *types.Tuple, call *ast.CallExpr) []signal {
	info := pass.TypesInfo
	var out []signal
	seen := make(map[signal]bool)
	add := func(kind string, v *types.Var) {
		if v == nil {
			return
		}
		if params != nil {
			mapped, ok := substituteParam(info, v, params, call)
			if !ok {
				return
			}
			v = mapped
		}
		s := signal{kind: kind, v: v}
		if !seen[s] {
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

// substituteParam maps a callee parameter back to the caller variable
// passed at the spawn site.
func substituteParam(info *types.Info, v *types.Var, params *types.Tuple, call *ast.CallExpr) (*types.Var, bool) {
	for i := 0; i < params.Len(); i++ {
		if params.At(i) != v {
			continue
		}
		if i < len(call.Args) {
			if mapped := resolveVar(info, call.Args[i]); mapped != nil {
				return mapped, true
			}
		}
		return nil, false
	}
	return v, true // not a parameter: field or captured variable
}

// isLocal reports whether v lives in some function's scope (as opposed to
// a struct field or package-level variable, whose joins are package-wide).
func isLocal(pass *analysis.Pass, v *types.Var) bool {
	if v.IsField() {
		return false
	}
	return v.Parent() != nil && v.Parent() != pass.Pkg.Scope() && v.Parent() != types.Universe
}

type joinResult int

const (
	joinNone joinResult = iota // no join site in the function; not escaped
	joinSome                   // a join exists but some path to the exit skips it
	joinAll                    // every non-panic path from the spawn passes a join
)

// localJoin checks a function-local signal variable: every path from the
// spawn to the normal exit must pass a block containing the join (the
// deferred chain counts). A variable handed to another function, stored,
// or returned is assumed joined by its new owner.
func localJoin(pass *analysis.Pass, cfg *analysis.CFG, body *ast.BlockStmt, g *ast.GoStmt, s *signal, pred func(*types.Info, ast.Node, *types.Var) bool) joinResult {
	info := pass.TypesInfo
	hasJoin := false
	ast.Inspect(body, func(n ast.Node) bool {
		if pred(info, n, s.v) {
			hasJoin = true
		}
		return !hasJoin
	})
	if !hasJoin {
		if escapes(info, body, s.v) {
			return joinAll
		}
		return joinNone
	}
	if allPathsJoin(info, cfg, g, s.v, pred) {
		return joinAll
	}
	return joinSome
}

// allPathsJoin walks the CFG from the spawn block: a path that reaches the
// normal exit without passing a join block is a leak. The panic exit is
// exempt (panics unwind past joins by design).
func allPathsJoin(info *types.Info, cfg *analysis.CFG, g *ast.GoStmt, v *types.Var, pred func(*types.Info, ast.Node, *types.Var) bool) bool {
	nodeJoins := func(n ast.Node) bool {
		found := false
		analysis.InspectShallow(n, func(m ast.Node) {
			if pred(info, m, v) {
				found = true
			}
		})
		return found
	}
	var spawn *analysis.Block
	spawnIdx := -1
	for _, b := range cfg.Blocks {
		for i, n := range b.Nodes {
			if n == g {
				spawn, spawnIdx = b, i
				break
			}
		}
		if spawn != nil {
			break
		}
	}
	if spawn == nil {
		return false
	}
	// The rest of the spawn block runs on every path out of it.
	for _, n := range spawn.Nodes[spawnIdx+1:] {
		if nodeJoins(n) {
			return true
		}
	}
	blockJoins := func(b *analysis.Block) bool {
		for _, n := range b.Nodes {
			if nodeJoins(n) {
				return true
			}
		}
		return false
	}
	visited := map[*analysis.Block]bool{spawn: true}
	stack := append([]*analysis.Block(nil), spawn.Succs...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[b] {
			continue
		}
		visited[b] = true
		if b == cfg.Exit {
			return false
		}
		if b == cfg.PanicExit || blockJoins(b) {
			continue
		}
		stack = append(stack, b.Succs...)
	}
	return true
}

// escapes reports whether v is handed beyond this function: passed as a
// call argument (directly or by address), returned, or placed in a
// composite literal. Join/signal uses do not count.
func escapes(info *types.Info, body *ast.BlockStmt, v *types.Var) bool {
	usesV := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u, ok := info.Uses[id].(*types.Var); ok && u == v {
					found = true
				}
			}
			return !found
		})
		return found
	}
	escaped := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, ok := waitGroupCall(info, n, "Done"); ok {
				return true
			}
			if _, ok := waitGroupCall(info, n, "Wait"); ok {
				return true
			}
			if closedChan(info, n) != nil {
				return true
			}
			for _, arg := range n.Args {
				if usesV(arg) {
					escaped = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if usesV(r) {
					escaped = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if usesV(e) {
					escaped = true
				}
			}
		}
		return !escaped
	})
	return escaped
}

// isWaitOn reports whether n is v.Wait().
func isWaitOn(info *types.Info, n ast.Node, v *types.Var) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	w, ok := waitGroupCall(info, call, "Wait")
	return ok && w == v
}

// isRecvFrom reports whether n receives from v: a <-v expression or a
// range over it.
func isRecvFrom(info *types.Info, n ast.Node, v *types.Var) bool {
	switch n := n.(type) {
	case *ast.UnaryExpr:
		return n.Op == token.ARROW && resolveVar(info, n.X) == v
	case *ast.RangeStmt:
		return isChan(info, n.X) && resolveVar(info, n.X) == v
	}
	return false
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

// resolveVar maps an expression to the variable or field it names.
func resolveVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return v
		}
		if v, ok := info.Defs[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
			return nil
		}
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

func isChan(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
