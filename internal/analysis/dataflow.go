package analysis

// Forward dataflow over a CFG (DESIGN.md §13). The lattice is a small
// abstract-ownership domain for the protocol analyzers:
//
//	        Escaped            (top: crossed a goroutine/closure boundary)
//	           |
//	      MaybeReleased        (released on some path, live on another)
//	       /        \
//	   Owned      Released
//	       \        /
//	        Bottom             (untracked / unreachable)
//
// Join is the least upper bound along that diagram. Analyzers give their
// own meaning to the points (slotlife reads Owned as "token held"); the
// runner only joins.

import "go/ast"

// Val is one point of the ownership lattice.
type Val uint8

const (
	// Bottom: not tracked on this path (or path unreachable).
	Bottom Val = iota
	// Owned: this frame holds the value and is responsible for exactly one
	// release.
	Owned
	// Released: ownership was given up; any further use is a bug.
	Released
	// MaybeReleased: released on at least one incoming path and still live
	// on another — uses are flagged, re-releases are double-releases.
	MaybeReleased
	// Escaped: the value crossed into a goroutine or stored location this
	// analysis cannot see; all bets are off (top).
	Escaped
)

func (v Val) String() string {
	switch v {
	case Bottom:
		return "bottom"
	case Owned:
		return "owned"
	case Released:
		return "released"
	case MaybeReleased:
		return "maybe-released"
	case Escaped:
		return "escaped"
	}
	return "val?"
}

// JoinVal is the least upper bound of two lattice points.
func JoinVal(a, b Val) Val {
	if a == b {
		return a
	}
	if a == Bottom {
		return b
	}
	if b == Bottom {
		return a
	}
	if a == Escaped || b == Escaped {
		return Escaped
	}
	// Two distinct points of {Owned, Released, MaybeReleased}.
	return MaybeReleased
}

// State maps tracked keys (typically *types.Var) to lattice points. Keys
// absent from the map are Bottom.
type State map[any]Val

// Get returns the point for key, Bottom if untracked.
func (s State) Get(key any) Val {
	return s[key]
}

// Set records a point; setting Bottom removes the key.
func (s State) Set(key any, v Val) {
	if v == Bottom {
		delete(s, key)
		return
	}
	s[key] = v
}

func (s State) clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// joinInto merges other into s, returning true if s changed.
func (s State) joinInto(other State) bool {
	changed := false
	for k, v := range other {
		nv := JoinVal(s[k], v)
		if nv != s[k] {
			s[k] = nv
			changed = true
		}
	}
	return changed
}

// Flow runs a forward dataflow problem to fixpoint over a CFG.
type Flow struct {
	CFG *CFG
	// Transfer applies one node's effect to st in place. It must be
	// monotone for the fixpoint to terminate (the iteration cap backstops
	// a non-monotone transfer, trading precision for termination).
	Transfer func(blk *Block, n ast.Node, st State)
}

// maxFixpointSweeps bounds full-graph sweeps. The lattice has height 3 per
// key, so honest transfers converge in a handful of sweeps; this is a
// backstop against a buggy analyzer, not a tuning knob.
const maxFixpointSweeps = 64

// Fixpoint computes per-block entry states. in[b.Index] is the join of all
// predecessor exit states; Entry starts empty (analyzers seed initial
// ownership in their Transfer on defining nodes).
func (f *Flow) Fixpoint() []State {
	n := len(f.CFG.Blocks)
	in := make([]State, n)
	for i := range in {
		in[i] = State{}
	}
	work := []*Block{f.CFG.Entry}
	// reached marks blocks queued at least once: a block whose entry state
	// is still empty when control first reaches it (nothing tracked yet —
	// an acquire inside a loop body) must run too, or everything it
	// acquires is invisible.
	queued, reached := make([]bool, n), make([]bool, n)
	queued[f.CFG.Entry.Index], reached[f.CFG.Entry.Index] = true, true
	sweeps := 0
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk.Index] = false
		if sweeps++; sweeps > maxFixpointSweeps*n {
			break
		}
		out := in[blk.Index].clone()
		for _, node := range blk.Nodes {
			f.Transfer(blk, node, out)
		}
		for _, s := range blk.Succs {
			if (in[s.Index].joinInto(out) || !reached[s.Index]) && !queued[s.Index] {
				work = append(work, s)
				queued[s.Index], reached[s.Index] = true, true
			}
		}
	}
	return in
}

// Visit replays every block once from its fixpoint entry state, calling
// report before applying each node's transfer — so report sees the state
// the node executes in. Blocks never reached keep empty states; analyzers
// that care can skip blocks with no predecessors.
func (f *Flow) Visit(in []State, report func(blk *Block, n ast.Node, st State)) {
	for _, blk := range f.CFG.Blocks {
		st := in[blk.Index].clone()
		for _, node := range blk.Nodes {
			report(blk, node, st)
			f.Transfer(blk, node, st)
		}
	}
}
