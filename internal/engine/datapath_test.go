package engine

import (
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/obs"
	"ratel/internal/tensor"
)

// steadyStateAllocBudget is the steady-state TrainStep allocation ceiling on
// the mixed-swap mini config: zero, at GOMAXPROCS 1, 2 and 4, on both kernel
// sets and under the race detector, traced or not. Every tensor comes from the
// step's arenas (240 allocations before them, 1835 before the data path's
// buffers had owners), every block refills its own cache, and every fan-out
// runs on a record its pool.Site reuses (13 before those). A leak of any kind
// fails it: a kernel that hands stack scratch to the simd dispatch table's
// indirect call costs 2 allocations per call, one tensor allocated past its
// arena costs 3, a span label built per block call (fmt.Sprintf,
// concatenation) one per block, and a capturing closure handed to the pool
// one per call.
const steadyStateAllocBudget = 0

// TestTrainStepSteadyStateAllocs pins the zero-allocation claim: after
// warm-up, a swap-mode TrainStep must stay under the regression budget, and
// the same step traced allocates no more: every span is recorded by
// obs.Tracer.Do with a precomputed label, whose closure stays on the stack.
// The mini step's blobs are small, so its transfers take the array's
// inline path.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	untraced := mixedSwapAllocs(t, nil)
	t.Logf("steady-state allocs/step = %.0f (budget %d)", untraced, steadyStateAllocBudget)
	if untraced > steadyStateAllocBudget {
		t.Fatalf("steady-state TrainStep allocates %.0f/step, budget %d", untraced, steadyStateAllocBudget)
	}
	tr := obs.NewTracer(0)
	if traced := mixedSwapAllocs(t, tr); traced > untraced {
		t.Errorf("traced TrainStep allocates %.0f/step, untraced %.0f", traced, untraced)
	}
	if total, _ := tr.Recorded(); total == 0 {
		t.Error("the traced steps recorded no span")
	}
}

// mixedSwapAllocs is stepAllocs for the mixed-swap mini config with tracer
// installed.
func mixedSwapAllocs(t *testing.T, tracer *obs.Tracer) float64 {
	return stepAllocs(t, Config{GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD}, Tracer: tracer}, false)
}

// TestDecodedCacheNeverAliasesBlob: blobArena.decode copies, never aliases —
// poisoning the source blob after decode must not disturb the revived
// cache. This is the invariant that makes recycling fetch buffers safe
// while the previous block's cache is still being consumed.
func TestDecodedCacheNeverAliasesBlob(t *testing.T) {
	g := geometry{batch: 2, seq: 4, hidden: 8, heads: 2}
	src := newCache(g, nil)
	for i, tt := range cacheTensors(src) {
		for j := range tt.Data {
			tt.Data[j] = tensor.RoundFP16(float32(i+1) * float32(j%7) * 0.25)
		}
	}
	var ar blobArena
	blob := make([]byte, g.blobBytes())
	if err := ar.encode(blob, src); err != nil {
		t.Fatal(err)
	}

	input := tensor.New(g.batch*g.seq, g.hidden)
	dst := newCache(g, nil)
	if err := ar.decode(dst, blob, input); err != nil {
		t.Fatal(err)
	}
	want := make([][]float32, 0)
	for _, tt := range cacheTensors(dst) {
		want = append(want, append([]float32(nil), tt.Data...))
	}

	// Poison the blob as a recycled buffer would be: every byte clobbered.
	for i := range blob {
		blob[i] = 0xFF
	}
	for i, tt := range cacheTensors(dst) {
		for j, v := range tt.Data {
			if v != want[i][j] {
				t.Fatalf("cache tensor %d[%d] changed after blob poison: %v vs %v", i, j, v, want[i][j])
			}
		}
	}
	if dst.X != input {
		t.Fatal("decode must install the block input by reference")
	}
}

// TestPoisonedPoolBuffersAreTransparent: dirtying every buffer the
// activation path owns (ring slots and host-tier blobs; the optimizer's
// window buffers have their own twin, opt.TestPipelineWindowOwnsItsBuffers)
// between steps must not change training — every buffer is fully overwritten
// before it is read, so a previous owner's bytes can never leak into values.
func TestPoisonedPoolBuffersAreTransparent(t *testing.T) {
	swap := map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapHost}
	ref := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap})
	poisoned := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap})
	tokens, targets := data(ref.cfg.Model, 1)

	var refLoss, poiLoss []float64
	for step := 0; step < 4; step++ {
		l, err := ref.TrainStep(tokens, targets)
		if err != nil {
			t.Fatal(err)
		}
		refLoss = append(refLoss, l)

		if n := poisonArena(poisoned); step > 0 && n != 3 {
			t.Fatalf("step %d: poisoned %d buffers, want block 0's ring slot and two host blobs", step, n)
		}
		l, err = poisoned.TrainStep(tokens, targets)
		if err != nil {
			t.Fatal(err)
		}
		poiLoss = append(poiLoss, l)
	}
	for i := range refLoss {
		if refLoss[i] != poiLoss[i] {
			t.Fatalf("loss[%d] differs with poisoned buffers: %v vs %v", i, refLoss[i], poiLoss[i])
		}
	}
	pa, pb := paramsSnapshot(ref.Model()), paramsSnapshot(poisoned.Model())
	if !floatsEqual(pa, pb) {
		t.Fatal("poisoned buffers changed trained parameters")
	}
}

// newCache is a block cache of geometry g with every serialized tensor
// allocated from a (nil: the heap), the way reviveCache shapes one.
func newCache(g geometry, a *tensor.Arena) *nn.BlockCache {
	c := new(nn.BlockCache)
	g.shapeCache(c, a)
	return c
}

func floatsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBlobArenaRingSlots: within any window of ring-size consecutive
// blocks, every block gets a distinct slot buffer (the pipeline overlap
// argument), and block i+ringsize reuses block i's backing exactly. consume
// on an idle window simply lends the block's slot.
func TestBlobArenaRingSlots(t *testing.T) {
	for _, nslots := range []int{2, 3, 4} {
		model := miniConfig()
		model.Layers = 2 * nslots
		e := newEngine(t, Config{Model: model, PipelineDepth: nslots - 1})
		if got := len(e.win.ring); got != nslots {
			t.Fatalf("depth %d made %d slots", nslots-1, got)
		}
		bufs := make([]*byte, 2*nslots)
		for i := range bufs {
			if err := e.win.consume(i, false, func(blob []byte) error { bufs[i] = &blob[0]; return nil }); err != nil {
				t.Fatal(err)
			}
			for j := max(0, i-nslots+1); j < i; j++ {
				if bufs[i] == bufs[j] {
					t.Fatalf("nslots=%d: blocks %d and %d share a slot buffer", nslots, j, i)
				}
			}
			if i >= nslots && bufs[i] != bufs[i-nslots] {
				t.Fatalf("nslots=%d: block %d did not reuse block %d's slot buffer", nslots, i, i-nslots)
			}
		}
		if got := e.arena.blobReuses.Load(); got != int64(nslots) {
			t.Fatalf("blob_reuses = %d after every slot was used twice, want %d", got, nslots)
		}
		pipelineIdle(t, e)
	}
}
