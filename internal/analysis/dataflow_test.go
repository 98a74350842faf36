package analysis

import (
	"go/ast"
	"testing"
)

// All lattice points, for exhaustive law checks.
var allVals = []Val{Bottom, Owned, Released, MaybeReleased, Escaped}

func TestJoinLaws(t *testing.T) {
	for _, a := range allVals {
		if got := JoinVal(a, a); got != a {
			t.Errorf("join(%v,%v) = %v, want idempotent", a, a, got)
		}
		if got := JoinVal(a, Bottom); got != a {
			t.Errorf("join(%v,bottom) = %v, want %v", a, got, a)
		}
		if got := JoinVal(a, Escaped); got != Escaped {
			t.Errorf("join(%v,escaped) = %v, want escaped (top)", a, got)
		}
		for _, b := range allVals {
			if JoinVal(a, b) != JoinVal(b, a) {
				t.Errorf("join(%v,%v) not commutative", a, b)
			}
			for _, c := range allVals {
				if JoinVal(JoinVal(a, b), c) != JoinVal(a, JoinVal(b, c)) {
					t.Errorf("join not associative at (%v,%v,%v)", a, b, c)
				}
			}
		}
	}
}

func TestJoinProtocolPoints(t *testing.T) {
	cases := []struct{ a, b, want Val }{
		{Owned, Released, MaybeReleased},
		{Released, MaybeReleased, MaybeReleased},
		{Owned, MaybeReleased, MaybeReleased},
	}
	for _, c := range cases {
		if got := JoinVal(c.a, c.b); got != c.want {
			t.Errorf("join(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestStateSetBottomDeletes(t *testing.T) {
	s := State{}
	k := "key"
	s.Set(k, Owned)
	if s.Get(k) != Owned {
		t.Fatal("set/get failed")
	}
	s.Set(k, Bottom)
	if _, ok := s[k]; ok {
		t.Fatal("Set(Bottom) must delete the key")
	}
}

// transferForTest interprets a tiny protocol over identifiers by name:
// acquire(x) makes x Owned, release(x) makes it Released (joining via the
// natural protocol on repeats), spawn(x) escapes it.
func transferForTest(_ *Block, n ast.Node, st State) {
	call, ok := n.(ast.Stmt)
	if !ok {
		return
	}
	es, ok := call.(*ast.ExprStmt)
	if !ok {
		return
	}
	ce, ok := es.X.(*ast.CallExpr)
	if !ok || len(ce.Args) != 1 {
		return
	}
	fn, ok := ce.Fun.(*ast.Ident)
	if !ok {
		return
	}
	arg, ok := ce.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	switch fn.Name {
	case "acquire":
		st.Set(arg.Name, Owned)
	case "release":
		st.Set(arg.Name, Released)
	case "spawn":
		st.Set(arg.Name, Escaped)
	}
}

// A branch that releases on one arm only must join to MaybeReleased at the
// merge point — the core property AST-level checks cannot see.
func TestFixpointBranchJoin(t *testing.T) {
	c, _ := buildFrom(t, `
func f(ok bool) {
	acquire(x)
	if ok {
		release(x)
	}
	use(x)
}`)
	flow := &Flow{CFG: c, Transfer: transferForTest}
	in := flow.Fixpoint()
	// Find the if.done block: x must be maybe-released there.
	for _, b := range c.Blocks {
		if b.Comment == "if.done" {
			if got := in[b.Index].Get("x"); got != MaybeReleased {
				t.Fatalf("at if.done x = %v, want maybe-released", got)
			}
			return
		}
	}
	t.Fatal("no if.done block")
}

// A release inside a loop body feeds back through the head: the second
// iteration enters the body with x already released.
func TestFixpointLoopFeedback(t *testing.T) {
	c, _ := buildFrom(t, `
func f(n int) {
	acquire(x)
	for i := 0; i < n; i++ {
		release(x)
	}
}`)
	flow := &Flow{CFG: c, Transfer: transferForTest}
	in := flow.Fixpoint()
	for _, b := range c.Blocks {
		if b.Comment == "for.body" {
			if got := in[b.Index].Get("x"); got != MaybeReleased {
				t.Fatalf("loop body entry x = %v, want maybe-released (release feeds back)", got)
			}
		}
		if b.Comment == "for.done" {
			if got := in[b.Index].Get("x"); got != MaybeReleased {
				t.Fatalf("loop exit x = %v, want maybe-released (zero-trip path keeps it owned)", got)
			}
		}
	}
}

// An acquire that first happens inside a loop body: control reaches the
// loop with nothing tracked, and the body must still run — an empty entry
// state is not "unreached". The leak on the early return shows at the exit.
func TestFixpointReachesBlocksWithEmptyState(t *testing.T) {
	c, _ := buildFrom(t, `
func f(n int, bad bool) {
	for i := 0; i < n; i++ {
		acquire(x)
		if bad {
			return
		}
		release(x)
	}
}`)
	flow := &Flow{CFG: c, Transfer: transferForTest}
	in := flow.Fixpoint()
	if got := in[c.Exit.Index].Get("x"); got != MaybeReleased {
		t.Fatalf("at exit x = %v, want maybe-released (held on the early return, released on the loop's own exit)", got)
	}
}

// Visit reports the state each node executes in, before its own transfer.
func TestVisitSeesPreState(t *testing.T) {
	c, _ := buildFrom(t, `
func f() {
	acquire(x)
	release(x)
	release(x)
}`)
	flow := &Flow{CFG: c, Transfer: transferForTest}
	in := flow.Fixpoint()
	var seen []Val
	flow.Visit(in, func(_ *Block, n ast.Node, st State) {
		seen = append(seen, st.Get("x"))
	})
	// Before acquire: bottom. Before first release: owned. Before second
	// release: released (the double-release a checker would flag).
	want := []Val{Bottom, Owned, Released}
	if len(seen) != len(want) {
		t.Fatalf("visited %d nodes, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("node %d pre-state = %v, want %v", i, seen[i], want[i])
		}
	}
}

// The defer chain participates in dataflow: a release inside a deferred
// call is applied on the exit path.
func TestFixpointDeferRelease(t *testing.T) {
	c, _ := buildFrom(t, `
func f() {
	acquire(x)
	defer release(x)
	work()
}`)
	// Transfer must unwrap the bare CallExpr defer-chain nodes too.
	transfer := func(blk *Block, n ast.Node, st State) {
		if ce, ok := n.(*ast.CallExpr); ok {
			transferForTest(blk, &ast.ExprStmt{X: ce}, st)
			return
		}
		transferForTest(blk, n, st)
	}
	flow := &Flow{CFG: c, Transfer: transfer}
	in := flow.Fixpoint()
	if got := in[c.Exit.Index].Get("x"); got != Released {
		t.Fatalf("exit x = %v, want released via defer chain", got)
	}
}
