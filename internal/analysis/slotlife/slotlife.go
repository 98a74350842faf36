// Package slotlife guards the ring-arena slot-token protocol of the
// activation I/O window (DESIGN.md §10): a token taken with acquireSlot
// must leave the function exactly once on every path — either handed to
// the window's workers with submit (forward: the encoded blob's write;
// backward: a read-ahead launch) or returned with releaseSlot (backward:
// the fetched blob consumed; either direction: a finished join or a
// failure path). Double releases corrupt the token channel (a slot with
// two tokens admits two concurrent transfers into one arena slot); a
// leaked token deadlocks the step barrier, which takes every token. Both
// only happen on the paths AST checks cannot see — error returns, branch
// merges, loop bodies, panic exits — which is exactly where the
// CFG/dataflow substrate (DESIGN.md §13) looks.
package slotlife

import (
	"go/ast"
	"go/token"
	"go/types"

	"ratel/internal/analysis"
)

// Analyzer is the slotlife check.
var Analyzer = &analysis.Analyzer{
	Name: "slotlife",
	Doc: `ring-arena slot tokens must be released exactly once on every path

Tracks the integer slot variable passed to acquireSlot through the
function's control-flow graph. releaseSlot(slot) and submit(job{slot:
slot, ...}) both give the token up; reaching any exit — including the
panic exit through the defer chain — while the token is still held is a
leak, and releasing twice (or releasing after submit) is a double release.
Exactness: recognition is by method name (acquireSlot/releaseSlot/submit
— the engine's window types are unexported, so the protocol is the
name); only bare-identifier slot variables are tracked, and a slot
variable captured by a closure or handed to a goroutine escapes the
analysis. Implicit runtime panics are not modeled; explicit panic paths
are.`,
	Scope: []string{"ratel/internal/engine"},
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// slotCall classifies one protocol call site.
type slotCall struct {
	v   *types.Var
	via string // "acquireSlot", "releaseSlot", or "submit"
	pos token.Pos
}

type tracker struct {
	pass *analysis.Pass
	// acquiredAt remembers where each tracked variable last took its token,
	// for the leak report (the acquire is the actionable site).
	acquiredAt map[*types.Var]token.Pos
	reported   map[token.Pos]bool
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	hasAcquire := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sc, ok := classify(pass.TypesInfo, call); ok && sc.via == "acquireSlot" {
				hasAcquire = true
			}
		}
		return !hasAcquire
	})
	if !hasAcquire {
		return
	}

	tr := &tracker{
		pass:       pass,
		acquiredAt: make(map[*types.Var]token.Pos),
		reported:   make(map[token.Pos]bool),
	}
	cfg := pass.FuncCFG(body)
	flow := &analysis.Flow{CFG: cfg, Transfer: tr.transfer}
	in := flow.Fixpoint()
	flow.Visit(in, tr.report)

	// Exit obligations: a token still held when control leaves the function
	// is a leak. Owned at the exit join means every reaching path holds it;
	// MaybeReleased means at least one path leaks it.
	reportLeaks := func(st analysis.State, panicPath bool) {
		for key, val := range st {
			v, ok := key.(*types.Var)
			if !ok {
				continue
			}
			pos, known := tr.acquiredAt[v]
			if !known || tr.reported[pos] {
				continue
			}
			switch {
			case val == analysis.Owned && !panicPath:
				tr.reported[pos] = true
				pass.Reportf(pos, "slot token %q is never released: every path must releaseSlot or submit before returning", v.Name())
			case val == analysis.MaybeReleased && !panicPath:
				tr.reported[pos] = true
				pass.Reportf(pos, "slot token %q is not released on every path: an error return is missing its releaseSlot", v.Name())
			case (val == analysis.Owned || val == analysis.MaybeReleased) && panicPath:
				tr.reported[pos] = true
				pass.Reportf(pos, "slot token %q leaks on a panic path: release it in a defer so recover leaves the ring usable", v.Name())
			}
		}
	}
	reportLeaks(in[cfg.Exit.Index], false)
	reportLeaks(in[cfg.PanicExit.Index], true)
}

func (tr *tracker) transfer(_ *analysis.Block, n ast.Node, st analysis.State) {
	info := tr.pass.TypesInfo
	analysis.InspectShallow(n, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.CallExpr:
			if sc, ok := classify(info, m); ok {
				if sc.via == "acquireSlot" {
					st.Set(sc.v, analysis.Owned)
					tr.acquiredAt[sc.v] = sc.pos
				} else {
					st.Set(sc.v, analysis.Released)
				}
			}
		case *ast.AssignStmt:
			// Reassigning the slot variable re-points the handle; the old
			// token (if held) is checked at the reassignment by report.
			for _, l := range m.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
					if v := analysis.UsedVar(info, id); v != nil {
						st.Set(v, analysis.Bottom)
					}
				}
			}
		case *ast.FuncLit:
			for _, v := range capturedVars(info, m) {
				if st.Get(v) != analysis.Bottom {
					st.Set(v, analysis.Escaped)
				}
			}
		case *ast.GoStmt:
			for _, arg := range m.Call.Args {
				if v := analysis.UsedVar(info, arg); v != nil && st.Get(v) != analysis.Bottom {
					st.Set(v, analysis.Escaped)
				}
			}
		}
	})
}

func (tr *tracker) report(_ *analysis.Block, n ast.Node, st analysis.State) {
	info := tr.pass.TypesInfo
	analysis.InspectShallow(n, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.CallExpr:
			sc, ok := classify(info, m)
			if !ok || tr.reported[sc.pos] {
				return
			}
			val := st.Get(sc.v)
			switch sc.via {
			case "acquireSlot":
				if val == analysis.Owned || val == analysis.MaybeReleased {
					tr.reported[sc.pos] = true
					tr.pass.Reportf(sc.pos, "slot token %q re-acquired while still held: the previous acquireSlot was never released", sc.v.Name())
				}
			default: // releaseSlot or submit
				if val == analysis.Released {
					tr.reported[sc.pos] = true
					tr.pass.Reportf(sc.pos, "slot token %q released twice: %s gives up a token this path already gave up", sc.v.Name(), sc.via)
				} else if val == analysis.MaybeReleased {
					tr.reported[sc.pos] = true
					tr.pass.Reportf(sc.pos, "slot token %q may already be released on a preceding path: %s here double-releases it", sc.v.Name(), sc.via)
				}
			}
		case *ast.AssignStmt:
			for _, l := range m.Lhs {
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				v, _ := info.Uses[id].(*types.Var)
				if v == nil {
					continue
				}
				if val := st.Get(v); val == analysis.Owned || val == analysis.MaybeReleased {
					if !tr.reported[id.Pos()] {
						tr.reported[id.Pos()] = true
						tr.pass.Reportf(id.Pos(), "slot variable %q reassigned while its token is still held: the old token can no longer be released", v.Name())
					}
				}
			}
		}
	})
}

// classify recognizes the three protocol calls by method name and resolves
// the slot variable. acquireSlot/releaseSlot carry it as their first
// argument; submit carries it as the `slot` field of its job literal.
func classify(info *types.Info, call *ast.CallExpr) (slotCall, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return slotCall{}, false
	}
	switch sel.Sel.Name {
	case "acquireSlot", "releaseSlot":
		if len(call.Args) < 1 {
			return slotCall{}, false
		}
		v := analysis.UsedVar(info, call.Args[0])
		if v == nil {
			return slotCall{}, false
		}
		return slotCall{v: v, via: sel.Sel.Name, pos: call.Pos()}, true
	case "submit":
		if len(call.Args) != 1 {
			return slotCall{}, false
		}
		cl, ok := ast.Unparen(call.Args[0]).(*ast.CompositeLit)
		if !ok {
			return slotCall{}, false
		}
		for _, el := range cl.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "slot" {
				continue
			}
			v := analysis.UsedVar(info, kv.Value)
			if v == nil {
				return slotCall{}, false
			}
			return slotCall{v: v, via: "submit", pos: call.Pos()}, true
		}
	}
	return slotCall{}, false
}

func capturedVars(info *types.Info, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return true
	})
	return out
}
