package engine

// op is what one cell of the step plan does.
type op int

// The step's operations, in the order a step first meets them.
const (
	opEmbed         op = iota // token embedding
	opForward                 // block forward, its input kept as the recomputation root
	opOffload                 // SSD tier: the block's cache written behind through its ring slot
	opPin                     // host tier: the block's cache encoded into its own blob
	opRelease                 // the block's scope ends
	opHead                    // final norm and logits
	opLoss                    // cross-entropy and its gradient
	opBarrier                 // forward's half of the step barrier: every write-behind joins
	opHeadBackward            // the head's gradients
	opFetch                   // SSD tier: read-ahead of the block's blob into its ring slot
	opConsume                 // SSD tier: join the block's slot and decode its cache
	opRevive                  // host tier: decode the block's cache from its blob
	opRecompute               // rebuild the block's cache from its input
	opBackward                // block backward
	opEmbedBackward           // the embedding's gradients
	opGrads                   // group block+1 is complete (the head is block layers, the embedding -1)
)

// cell is one step of the plan. resident marks a consume whose ring slot
// still holds the block's blob, so nothing fetches it.
type cell struct {
	op       op
	block    int
	resident bool
}

// stepPlan is the schedule of one micro-batch (§IV-C/§IV-D, Fig. 4) over
// layers blocks placed by swap, with a ring of depth+1 slots and read-ahead
// ahead blocks deep; runBatch runs it and decides nothing itself. Every
// block's scope ends after its forward but a trailing Recompute block's:
// backward wants that cache a head forward later, so it is kept, not rebuilt.
//
// The ring is a cache: block i offloads into slot i mod (depth+1), and each
// slot's last SSD block is still there at its consume (no read lands in a
// slot before every block above the read's has been consumed), so it is
// resident and gets no fetch. Read-ahead is staggered: a consume first places
// the fetches up to its own block that nothing has placed, and after each
// block they reach down to block i-ahead, overlapping its backward — a
// full-depth burst would fair-queue on the read lanes ahead of the one fetch
// backward is about to wait on. ahead 0 is the oracleSyncIO reference.
func stepPlan(swap map[int]Tier, layers, depth, ahead int) []cell {
	resident := make([]bool, layers)
	taken := make([]bool, depth+1) // by slot, from the top block down
	for i := layers - 1; i >= 0; i-- {
		if s := i % (depth + 1); swap[i] == SwapSSD && !taken[s] {
			resident[i], taken[s] = true, true
		}
	}
	p := []cell{{op: opEmbed, block: -1}}
	for i := 0; i < layers; i++ {
		p = append(p, cell{op: opForward, block: i})
		switch swap[i] {
		case SwapSSD:
			p = append(p, cell{op: opOffload, block: i})
		case SwapHost:
			p = append(p, cell{op: opPin, block: i})
		}
		if i < layers-1 || swap[i] != Recompute {
			p = append(p, cell{op: opRelease, block: i})
		}
	}
	p = append(p, cell{op: opHead, block: layers}, cell{op: opLoss, block: layers}, cell{op: opBarrier, block: layers},
		cell{op: opHeadBackward, block: layers}, cell{op: opGrads, block: layers})
	next := layers - 1 // the highest block whose fetch is not yet placed
	fetch := func(lo int) {
		for ; next >= max(lo, 0); next-- {
			if swap[next] == SwapSSD && !resident[next] {
				p = append(p, cell{op: opFetch, block: next})
			}
		}
	}
	for i := layers - 1; i >= 0; i-- {
		switch swap[i] {
		case SwapSSD:
			fetch(i)
			p = append(p, cell{op: opConsume, block: i, resident: resident[i]})
		case SwapHost:
			p = append(p, cell{op: opRevive, block: i})
		default:
			if i < layers-1 {
				p = append(p, cell{op: opRecompute, block: i})
			}
		}
		fetch(i - ahead)
		p = append(p, cell{op: opBackward, block: i}, cell{op: opRelease, block: i}, cell{op: opGrads, block: i})
	}
	return append(p, cell{op: opEmbedBackward, block: -1}, cell{op: opGrads, block: -1})
}

// replan builds the step plan for Config.Swap at the engine's depth.
func (e *Engine) replan() {
	ahead := e.depth
	if e.cfg.oracleSyncIO {
		ahead = 0
	}
	e.plan = stepPlan(e.cfg.Swap, len(e.inputs), e.depth, ahead)
}
