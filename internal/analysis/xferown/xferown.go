// Package xferown guards the buffer-ownership protocol of the offload data
// path with the CFG/dataflow substrate (DESIGN.md §13): a buffer handed to
// (*nvme.BufPool).Put — or queued to a writer goroutine over a channel — is
// ownership-transferred, and any later read, write, or re-release through
// the old variable on any path is a use-after-transfer. It supersedes the
// retired straight-line bufreuse analyzer and sees what that one could
// not: releases that only happen on one branch, loop back edges carrying a
// released buffer into the next iteration, and deferred releases that are
// in fact safe.
package xferown

import (
	"go/ast"
	"go/types"

	"ratel/internal/analysis"
)

const nvmePkg = "ratel/internal/nvme"

// Analyzer is the xferown check.
var Analyzer = &analysis.Analyzer{
	Name: "xferown",
	Doc: `pooled buffers must not be used after ownership transfers

Tracks each buffer variable through the function's control-flow graph with
an owned/released lattice. (*BufPool).Put releases ownership to the pool;
sending the buffer (or a struct carrying it) on a channel transfers it to
the consuming goroutine. Any use after a transfer
— on every path or just one — is flagged, including uses a straight-line
scan cannot see (loop back edges, branch merges). Reassigning the variable
(e.g. from a fresh Get) clears the taint; a buffer captured live by a
closure escapes and is no longer tracked. Exactness: keys are bare local
variables; buffers released through fields, slices of buffers, or aliased
pointers are out of scope — the ownership comment on BufPool covers those
by contract. Implicit runtime panics are not modeled.`,
	Scope: []string{"ratel/internal/engine", "ratel/internal/nvme"},
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Each function body — declared or literal — is analyzed as its
			// own frame; closures appear opaque to the enclosing frame.
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

// tracker is the per-function dataflow client.
type tracker struct {
	pass *analysis.Pass
	// via records, per variable, how ownership left: "BufPool.Put", or ""
	// for a channel send.
	via map[*types.Var]string
	// reported dedupes findings per ident (Visit replays blocks once, but a
	// capture check may revisit an ident the closure's own frame also saw).
	reported map[*ast.Ident]bool
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	// Fast pre-filter: no transfer points, nothing to track.
	if !mentionsTransfer(pass.TypesInfo, body) {
		return
	}
	tr := &tracker{
		pass:     pass,
		via:      make(map[*types.Var]string),
		reported: make(map[*ast.Ident]bool),
	}
	cfg := pass.FuncCFG(body)
	flow := &analysis.Flow{CFG: cfg, Transfer: tr.transfer}
	in := flow.Fixpoint()
	flow.Visit(in, tr.report)
}

// mentionsTransfer reports whether the body contains any release or send.
func mentionsTransfer(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if _, ok := releaseCall(info, n); ok {
				found = true
			}
		}
		return !found
	})
	return found
}

// transfer applies one CFG node's ownership effects. Order inside a node:
// releases and sends first, then assignment gen/kill (a reassignment wins
// over a release in the same statement), then closure escapes.
func (tr *tracker) transfer(_ *analysis.Block, n ast.Node, st analysis.State) {
	info := tr.pass.TypesInfo
	analysis.InspectShallow(n, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.CallExpr:
			if v, ok := releaseCall(info, m); ok {
				st.Set(v, analysis.Released)
				tr.via[v] = "BufPool.Put"
			}
		case *ast.SendStmt:
			for _, v := range sentVars(info, m.Value) {
				if owns(st.Get(v)) {
					st.Set(v, analysis.Released)
					tr.via[v] = ""
				}
			}
		}
	})
	analysis.InspectShallow(n, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.AssignStmt:
			tr.assign(m.Lhs, m.Rhs, st)
		case *ast.DeclStmt:
			if gd, ok := m.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						lhs := make([]ast.Expr, len(vs.Names))
						for i, id := range vs.Names {
							lhs[i] = id
						}
						tr.assign(lhs, vs.Values, st)
					}
				}
			}
		case *ast.RangeStmt:
			var lhs []ast.Expr
			if m.Key != nil {
				lhs = append(lhs, m.Key)
			}
			if m.Value != nil {
				lhs = append(lhs, m.Value)
			}
			tr.assign(lhs, nil, st)
		}
	})
	analysis.InspectShallow(n, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.FuncLit:
			// A live buffer captured by a closure escapes this frame's
			// tracking; a released one stays released (the capture itself is
			// flagged by report).
			for _, v := range capturedVars(info, m) {
				if owns(st.Get(v)) || st.Get(v) == analysis.Borrowed {
					st.Set(v, analysis.Escaped)
				}
			}
		case *ast.GoStmt:
			// A buffer handed to a spawned goroutine as a call argument
			// crosses frames; stop tracking it here.
			for _, arg := range m.Call.Args {
				if v := analysis.UsedVar(info, arg); v != nil && owns(st.Get(v)) {
					st.Set(v, analysis.Escaped)
				}
			}
		}
	})
}

func owns(v analysis.Val) bool {
	return v == analysis.Owned || v == analysis.MaybeReleased
}

// assign applies gen/kill for one assignment: a bare-identifier LHS fed by
// a BufPool.Get becomes Owned, any other bare-identifier store kills the
// taint (the variable points at something new).
func (tr *tracker) assign(lhs, rhs []ast.Expr, st analysis.State) {
	for i, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		v := analysis.UsedVar(tr.pass.TypesInfo, id)
		if v == nil {
			continue
		}
		fresh := false
		if len(rhs) == len(lhs) {
			fresh = isGetCall(tr.pass.TypesInfo, rhs[i])
		} else if len(rhs) == 1 {
			fresh = isGetCall(tr.pass.TypesInfo, rhs[0])
		}
		if fresh {
			st.Set(v, analysis.Owned)
		} else {
			st.Set(v, analysis.Bottom)
		}
	}
}

// report flags uses of released buffers, replaying each node in the state
// it executes in (before its own transfer, so a first release is clean and
// a second one is a double-release).
func (tr *tracker) report(_ *analysis.Block, n ast.Node, st analysis.State) {
	var visit func(m ast.Node) bool
	visit = func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			// The closure runs no earlier than its creation: capturing a
			// buffer that is already released here is a use-after-transfer
			// wherever the closure later runs.
			ast.Inspect(m.Body, func(k ast.Node) bool {
				if id, ok := k.(*ast.Ident); ok {
					tr.checkUse(id, st)
				}
				return true
			})
			return false
		case *ast.AssignStmt:
			for _, r := range m.Rhs {
				ast.Inspect(r, visit)
			}
			for _, l := range m.Lhs {
				// A bare-identifier LHS is a store target, not a use; an
				// indexed or field LHS reads the released base.
				if _, bare := ast.Unparen(l).(*ast.Ident); !bare {
					ast.Inspect(l, visit)
				}
			}
			return false
		case *ast.RangeStmt:
			ast.Inspect(m.X, visit)
			return false
		case *ast.Ident:
			tr.checkUse(m, st)
		}
		return true
	}
	ast.Inspect(n, visit)
}

func (tr *tracker) checkUse(id *ast.Ident, st analysis.State) {
	v, _ := tr.pass.TypesInfo.Uses[id].(*types.Var)
	if v == nil || tr.reported[id] {
		return
	}
	val := st.Get(v)
	if val != analysis.Released && val != analysis.MaybeReleased {
		return
	}
	tr.reported[id] = true
	via := tr.via[v]
	switch {
	case via == "":
		tr.pass.Reportf(id.Pos(), "pooled buffer %q used after it was queued to a writer goroutine: ownership transferred with the send, the consumer may already be recycling the bytes", id.Name)
	case val == analysis.MaybeReleased:
		tr.pass.Reportf(id.Pos(), "pooled buffer %q may be used after %s released it on a preceding path: every path must either release or keep ownership", id.Name, via)
	default:
		tr.pass.Reportf(id.Pos(), "pooled buffer %q used after %s released it: ownership transferred to the pool, the bytes may already back another caller's data", id.Name, via)
	}
}

// releaseCall recognizes (*BufPool).Put, the pool's ownership-transfer
// entry point, and resolves the released argument to a bare variable.
func releaseCall(info *types.Info, call *ast.CallExpr) (*types.Var, bool) {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || analysis.FuncPkgPath(fn) != nvmePkg || fn.Name() != "Put" || len(call.Args) == 0 {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !analysis.NamedType(sig.Recv().Type(), nvmePkg, "BufPool") {
		return nil, false
	}
	v := analysis.UsedVar(info, call.Args[0])
	return v, v != nil
}

// isGetCall reports whether e is a (*BufPool).Get call — the ownership
// source that makes a variable tracked.
func isGetCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || analysis.FuncPkgPath(fn) != nvmePkg || fn.Name() != "Get" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && analysis.NamedType(sig.Recv().Type(), nvmePkg, "BufPool")
}

// sentVars lists the bare variables a channel send hands over: the value
// itself, or the top-level elements of a composite literal (the writer-job
// struct idiom).
func sentVars(info *types.Info, e ast.Expr) []*types.Var {
	var out []*types.Var
	add := func(x ast.Expr) {
		if v := analysis.UsedVar(info, x); v != nil {
			out = append(out, v)
		}
	}
	e = ast.Unparen(e)
	if cl, ok := e.(*ast.CompositeLit); ok {
		for _, el := range cl.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				add(kv.Value)
			} else {
				add(el)
			}
		}
		return out
	}
	add(e)
	return out
}

// capturedVars lists every variable a function literal references.
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
