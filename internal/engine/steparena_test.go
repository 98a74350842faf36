package engine

import (
	"errors"
	"math"
	"strings"
	"testing"
	"unsafe"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/obs"
	"ratel/internal/tensor"
	"ratel/internal/tensor/simd"
)

// poisonStepArena arms e's release hook to refill everything either arena may
// hand out next with NaN: at the top of every batch that is all of both, at a
// block scope's end all of the block arena and the step arena's unused part.
// A tensor that trusts what it was allocated over, or outlives its scope,
// turns the loss into NaN.
func poisonStepArena(e *Engine) {
	nan := float32(math.NaN())
	e.released = func(*tensor.Tensor) {
		for _, a := range []*tensor.Arena{&e.stepArena, &e.blockArena} {
			free := a.Free()
			for i := range free {
				free[i] = nan
			}
		}
	}
}

// arenaBound is the working set of one micro-batch in bytes, as DESIGN.md §9
// states it: the step-lived tensors, and the largest block scope — one cache,
// a backward's temporaries, and forward's FC2 output under a kept trailing
// cache. Every tensor is padded to a cache line (16 floats).
func arenaBound(cfg nn.Config, swap map[int]Tier) (step, block int) {
	pad := func(n int) int { return (n + 15) &^ 15 }
	n, h, v, l := cfg.Batch*cfg.Seq, cfg.Hidden, cfg.Vocab, cfg.Layers
	nh, probs := pad(n*h), pad(cfg.Batch*cfg.Heads*cfg.Seq*cfg.Seq)

	// Embedding, L block outputs, final norm, its gradient and the head's
	// input gradient, L block input gradients; logits and their gradient;
	// the tied head's embedding gradient.
	step = (2*l+4)*nh + 2*pad(n*v)
	if cfg.TieEmbeddings {
		step += pad(v * h)
	}
	// The cache is the blob's tensors (16 hidden-widths a token and the
	// probabilities); backward adds dgelu and dfc1 (4 widths each), dqkv (3),
	// dln2, dres1, dctx and dln1 (1 each) and two more stacks of seq×seq
	// matrices, plus two clones under dropout.
	cache := 5*nh + pad(3*n*h) + 2*pad(4*n*h) + probs
	block = cache + 4*nh + pad(3*n*h) + 2*pad(4*n*h) + 2*probs
	if cfg.Dropout > 0 {
		block += 2 * nh
	}
	if swap[l-1] == Recompute {
		block += nh // forward's FC2 output, alive under the kept cache
	}
	return 4 * step, 4 * block
}

// TestStepArenaWithinItsBound: in a steady state the step's working set is
// exactly its high-water mark — the heap serves nothing — and that is the
// formula of DESIGN.md §9, whatever the placement: at most one cache is ever
// live, because a second one would not fit.
func TestStepArenaWithinItsBound(t *testing.T) {
	mini := miniConfig()
	dropTied := mini
	dropTied.Dropout, dropTied.TieEmbeddings = 0.1, true
	for name, tc := range map[string]struct {
		model nn.Config
		swap  map[int]Tier
	}{
		"mixed":          {mini, map[int]Tier{0: SwapSSD, 1: SwapHost}},
		"mixed-dropout":  {dropTied, map[int]Tier{0: SwapSSD, 1: SwapHost}},
		"swapped-last":   {mini, map[int]Tier{1: SwapHost, 2: SwapSSD}},
		"recompute-only": {dropTied, nil},
		// The benchmark's four: 1.0, 1.9, 15.2 and 3.3 MB held.
		"io_mixed":        {nn.Config{Vocab: 64, Seq: 64, Hidden: 32, Heads: 2, Layers: 6, Batch: 2, Seed: 1}, allSSD(6)},
		"opt_stream":      {nn.Config{Vocab: 32, Seq: 64, Hidden: 64, Heads: 4, Layers: 4, Batch: 2, Seed: 1}, nil},
		"compute":         {nn.Config{Vocab: 256, Seq: 128, Hidden: 256, Heads: 8, Layers: 4, Batch: 2, Seed: 1}, map[int]Tier{0: SwapHost, 2: SwapHost}},
		"accum_ckpt_file": {nn.Config{Vocab: 128, Seq: 64, Hidden: 128, Heads: 4, Layers: 4, Batch: 2, Seed: 1}, map[int]Tier{0: SwapSSD, 1: SwapHost, 3: SwapSSD}},
	} {
		model := tc.model
		reg := obs.NewRegistry()
		e := newEngine(t, Config{Model: model, GradMode: agoffload.Optimized, Swap: tc.swap, Metrics: reg})
		trainK(t, e, 3)
		stepBound, blockBound := arenaBound(model, tc.swap)
		if got := e.stepArena.Cap(); got != stepBound || e.stepArena.Peak() != got {
			t.Errorf("%s: step arena holds %d B (peak %d), DESIGN §9 says %d", name, got, e.stepArena.Peak(), stepBound)
		}
		if got := e.blockArena.Cap(); got != blockBound || e.blockArena.Peak() != got {
			t.Errorf("%s: block arena holds %d B (peak %d), DESIGN §9 says %d", name, got, e.blockArena.Peak(), blockBound)
		}
		snap := reg.Snapshot()
		held, peak := snap["engine.step_arena_bytes"], snap["engine.step_arena_peak_bytes"]
		if peak > held || held > float64(stepBound+blockBound) || held == 0 {
			t.Errorf("%s: step_arena_peak_bytes %v <= step_arena_bytes %v <= bound %d does not hold", name, peak, held, stepBound+blockBound)
		}
	}
}

// TestPoisonedStepArenaIsTransparent is TestPoisonedPoolBuffersAreTransparent
// for the step's working set: with both arenas refilled with NaN at every
// reset and every scope release, a mixed-placement engine with dropout on —
// one block per tier, the trailing one's cache kept across the head — trains
// the bits it trains unpoisoned, and an arena-backed step's gradients are the
// ones nn.Model.ForwardBackward computes on zeroed heap tensors.
func TestPoisonedStepArenaIsTransparent(t *testing.T) {
	// Wide enough that attention's products run on the 8-row tiles, which read
	// the structural zeros next to the diagonal: at miniConfig's seq 6 the
	// row-exact edge path never looks above it.
	model := nn.Config{Vocab: 48, Seq: 16, Hidden: 64, Heads: 2, Layers: 3, Batch: 2, Seed: 77, Dropout: 0.1}
	cfg := Config{Model: model, GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapSSD, 1: SwapHost}}
	ref, poisoned := newEngine(t, cfg), newEngine(t, cfg)
	poisonStepArena(poisoned)
	plain, err := nn.NewModel(model)
	if err != nil {
		t.Fatal(err)
	}

	const steps = 4
	for s := 0; s < steps; s++ {
		tokens, targets := data(model, int64(s))
		if s == steps-1 {
			// The heap twin of the step about to run: same weights, same
			// dropout step, blocks recomputed or cached as it likes.
			for i, p := range poisoned.Model().Params() {
				copy(plain.Params()[i].W.Data, p.W.Data)
			}
			plain.SetStep(poisoned.Model().Step())
			plain.ZeroGrads()
			if _, err := plain.ForwardBackward(tokens, targets, map[int]bool{2: true}); err != nil {
				t.Fatal(err)
			}
		}
		want, err := ref.TrainStep(tokens, targets)
		if err != nil {
			t.Fatal(err)
		}
		got, err := poisoned.TrainStep(tokens, targets)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("loss[%d] = %v with the arenas poisoned, %v without", s, got, want)
		}
	}
	if poisoned.blockArena.Cap() == 0 || poisoned.stepArena.Peak() != poisoned.stepArena.Cap() {
		t.Fatal("the poisoned engine's last step was not served by its arenas")
	}
	if !floatsEqual(paramsSnapshot(ref.Model()), paramsSnapshot(poisoned.Model())) {
		t.Fatal("poisoned arenas changed trained parameters")
	}
	for i, p := range poisoned.Model().Params() {
		for j, g := range p.G.Data {
			if math.Float32bits(g) != math.Float32bits(plain.Params()[i].G.Data[j]) {
				t.Fatalf("%s gradient %d = %v from the arenas, %v from the heap", p.Name, j, g, plain.Params()[i].G.Data[j])
			}
		}
	}
}

// TestStepArenaLifetimes: at every release of arena memory, what lives on —
// every block input of the batch so far and the tensor being carried to the
// next block — lies outside everything either arena may hand out next; and a
// kept trailing cache is never released under its owner: its block's forward
// ends no scope, so a step over L blocks ends 2L-1 of them, not 2L.
func TestStepArenaLifetimes(t *testing.T) {
	for _, tc := range []struct {
		swap     map[int]Tier
		releases int // per batch: the top's, then one per block scope
	}{
		{map[int]Tier{0: SwapSSD, 1: SwapHost}, 1 + 2*3 - 1},
		{map[int]Tier{0: SwapSSD, 2: SwapHost}, 1 + 2*3},
	} {
		e := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: tc.swap})
		trainK(t, e, 2) // size both arenas
		inside := func(x *tensor.Tensor, region []float32) bool {
			if len(region) == 0 || len(x.Data) == 0 {
				return false
			}
			p, lo := uintptr(unsafe.Pointer(&x.Data[0])), uintptr(unsafe.Pointer(&region[0]))
			return p+uintptr(4*len(x.Data)) > lo && p < lo+uintptr(4*len(region))
		}
		releases, seen := 0, 0
		e.released = func(carried *tensor.Tensor) {
			releases++
			if carried == nil {
				seen = 0 // the top of a batch: nothing is live
				return
			}
			if seen < len(e.inputs) {
				seen++ // forward just stored one more block input
			}
			live := append([]*tensor.Tensor{carried}, e.inputs[:seen]...)
			for i, x := range live {
				if inside(x, e.blockArena.Free()) || inside(x, e.stepArena.Free()) {
					t.Fatalf("release %d: live tensor %d (0 is the carried one, then the block inputs) lies in freed arena memory", releases, i)
				}
			}
		}
		trainFrom(t, e, 2, 1)
		if releases != tc.releases {
			t.Errorf("placement %v: %d releases in a step, want %d", tc.swap, releases, tc.releases)
		}
	}
}

// TestFailedStepLeavesNoArenaState: a step that fails after forward — the
// caller's bad target at the loss (with every cache stashed, or with the
// trailing Recompute cache live across the failed head), a device fault at a
// fetch in mid-backward — leaves nothing behind in the step's working set.
// The engine trains on bit-identically to one that never failed, inside
// arenas of the same size, with the pipeline idle. A failed step still spends
// its optimizer step and its dropout step (older than the arenas), so the twin
// spends them by hand.
func TestFailedStepLeavesNoArenaState(t *testing.T) {
	boom := errors.New("uncorrectable read")
	for name, tc := range map[string]struct {
		cfg  Config
		fail func(t *testing.T, e *Engine, tokens, targets [][]int) error
	}{
		"bad-target": {
			Config{GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD}},
			failBadTarget,
		},
		"failed-head-under-kept-cache": {
			Config{GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapSSD, 1: SwapHost}},
			failBadTarget,
		},
		"fetch-fault-mid-backward": {
			// One device and no optimizer I/O before backward ends: chunk ops
			// 0-2 are the three blobs' writes; on the two-slot ring blocks 2
			// and 1 are decoded from their slots, and 3 is block 0's fetch.
			Config{GradMode: agoffload.Serialized, Swap: allSSD(3), Devices: 1, PipelineDepth: 1},
			func(t *testing.T, e *Engine, tokens, targets [][]int) error {
				e.Stats() // joins the trailing write-back: the countdown starts at this step
				e.Array().InjectFaultAfter(0, 3, boom)
				_, err := e.TrainStep(tokens, targets)
				e.Array().InjectFault(0, nil)
				if !errors.Is(err, boom) || !strings.Contains(err.Error(), "fetch block") {
					t.Fatalf("TrainStep with the fault armed = %v, want %v from a block's fetch", err, boom)
				}
				return err
			},
		},
	} {
		t.Run(name, func(t *testing.T) {
			tc.cfg.Model = miniConfig()
			tc.cfg.Model.Dropout = 0.1
			failed, twin := newEngine(t, tc.cfg), newEngine(t, tc.cfg)
			for s := 0; s < 6; s++ {
				tokens, targets := data(tc.cfg.Model, int64(s))
				if s == 3 {
					held := failed.stepArena.Cap() + failed.blockArena.Cap()
					tc.fail(t, failed, tokens, targets)
					pipelineIdle(t, failed)
					if got := failed.stepArena.Cap() + failed.blockArena.Cap(); got != held {
						t.Fatalf("the failed step resized the arenas: %d B, %d before it", got, held)
					}
					twin.optimizer.BeginStep()
					twin.model.NextStep()
				}
				got, err := failed.TrainStep(tokens, targets)
				if err != nil {
					t.Fatal(err)
				}
				want, err := twin.TrainStep(tokens, targets)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("loss[%d] = %v after the failed step, %v without it", s, got, want)
				}
				pipelineIdle(t, failed)
			}
			if !floatsEqual(paramsSnapshot(failed.Model()), paramsSnapshot(twin.Model())) {
				t.Fatal("the failed step changed trained parameters")
			}
			for _, a := range [][2]*tensor.Arena{{&failed.stepArena, &twin.stepArena}, {&failed.blockArena, &twin.blockArena}} {
				if a[0].Cap() != a[1].Cap() || a[0].Peak() != a[1].Peak() || a[0].Peak() != a[0].Cap() {
					t.Fatalf("arena holds %d B (peak %d) after the failed step, %d B (peak %d) without it",
						a[0].Cap(), a[0].Peak(), a[1].Cap(), a[1].Peak())
				}
			}
		})
	}
}

// failBadTarget runs a step whose first target is out of vocabulary: forward
// and the head succeed, the loss refuses.
func failBadTarget(t *testing.T, e *Engine, tokens, targets [][]int) error {
	bad := [][]int{append([]int(nil), targets[0]...), targets[1]}
	bad[0][0] = e.cfg.Model.Vocab + 5
	_, err := e.TrainStep(tokens, bad)
	if err == nil || !strings.Contains(err.Error(), "out of vocabulary") {
		t.Fatalf("TrainStep with a bad target = %v, want the vocabulary error", err)
	}
	return err
}

// workloadShapes are the benchmark's four workloads as engine configs: their
// models and placements, on the tests' default array.
func workloadShapes() map[string]Config {
	return map[string]Config{
		"io_mixed": {
			Model: nn.Config{Vocab: 64, Seq: 64, Hidden: 32, Heads: 2, Layers: 6, Batch: 2, Seed: 1},
			Swap:  allSSD(6),
		},
		"opt_stream": {
			Model: nn.Config{Vocab: 32, Seq: 64, Hidden: 64, Heads: 4, Layers: 4, Batch: 2, Seed: 1},
		},
		"compute": {
			Model: nn.Config{Vocab: 256, Seq: 128, Hidden: 256, Heads: 8, Layers: 4, Batch: 2, Seed: 1},
			Swap:  map[int]Tier{0: SwapHost, 2: SwapHost},
		},
		"accum_ckpt_file": {
			Model: nn.Config{Vocab: 128, Seq: 64, Hidden: 128, Heads: 4, Layers: 4, Batch: 2, Seed: 1},
			Swap:  map[int]Tier{0: SwapSSD, 1: SwapHost, 3: SwapSSD},
		},
	}
}

// TestWorkloadShapesArenaBitIdentical: at the four benchmark workloads'
// geometries and placements, three steps — the second and third inside the
// arenas — trace the same loss bits under every vector level the machine has,
// with the heads serial or fanned out over two threads (their Probs and
// backward temporaries are arena tensors allocated before the fan-out), and
// with the arenas poisoned.
func TestWorkloadShapesArenaBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-sized models in -short mode")
	}
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	levels := simd.Levels() // the vector levels agree bit for bit; the generic one only with itself
	if len(levels) > 1 {
		levels = levels[1:]
	}
	for name, cfg := range workloadShapes() {
		cfg.GradMode = agoffload.Optimized
		var want []float64
		for _, level := range levels {
			for _, threads := range []int{1, 2} {
				for _, dirty := range []bool{false, true} {
					if dirty && threads == 1 {
						continue // poison where it is hardest: under the fan-out
					}
					restore := simd.ForceLevel(level)
					tensor.SetParallelism(threads)
					e := newEngine(t, cfg)
					if dirty {
						poisonStepArena(e)
					}
					got := trainK(t, e, 3)
					// Close joins every goroutine that runs kernels before the
					// level changes under them.
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					restore()
					if want == nil {
						want = got
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: loss[%d] = %v on %s, %d threads, poisoned %v; %v on the first run",
								name, i, got[i], level, threads, dirty, want[i])
						}
					}
				}
			}
		}
	}
}
