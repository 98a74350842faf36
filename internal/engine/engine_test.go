package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/opt"
	"ratel/internal/tensor"
	"ratel/internal/tensor/simd"
	"ratel/internal/units"
)

func miniConfig() nn.Config {
	return nn.Config{Vocab: 13, Seq: 6, Hidden: 8, Heads: 2, Layers: 3, Batch: 2, Seed: 77}
}

func data(cfg nn.Config, seed int64) (tokens, targets [][]int) {
	rng := rand.New(rand.NewSource(seed))
	tokens = make([][]int, cfg.Batch)
	targets = make([][]int, cfg.Batch)
	for b := range tokens {
		tokens[b] = make([]int, cfg.Seq)
		targets[b] = make([]int, cfg.Seq)
		for s := range tokens[b] {
			tokens[b][s] = rng.Intn(cfg.Vocab)
			targets[b][s] = rng.Intn(cfg.Vocab)
		}
	}
	return tokens, targets
}

func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.Model.Vocab == 0 {
		cfg.Model = miniConfig()
	}
	if cfg.Devices == 0 {
		cfg.Devices = 3
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Close is where the last step's trailing write-back reports: every test
	// built on newEngine asserts it succeeded (a second Close is fine).
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return e
}

// paramsSnapshot flattens all model parameters for exact comparison.
func paramsSnapshot(m *nn.Model) []float32 {
	var out []float32
	for _, p := range m.Params() {
		out = append(out, p.W.Data...)
	}
	return out
}

func trainK(t testing.TB, e *Engine, steps int) []float64 {
	t.Helper()
	return trainFrom(t, e, 0, steps)
}

// trainFrom runs n steps on the batches of steps from, from+1, ...
func trainFrom(t testing.TB, e *Engine, from, n int) []float64 {
	t.Helper()
	var losses []float64
	for s := from; s < from+n; s++ {
		tokens, targets := data(e.cfg.Model, int64(s))
		loss, err := e.TrainStep(tokens, targets)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	return losses
}

// TestNoStalenessAcrossGradModes is the paper's central correctness claim
// (§IV-C): after k steps, parameters are bit-identical whether the
// optimizer ran as a serialized stage, as naive inline handlers, or as the
// optimized overlapped pipeline.
func TestNoStalenessAcrossGradModes(t *testing.T) {
	var ref []float32
	var refLoss []float64
	for _, mode := range []agoffload.Mode{agoffload.Serialized, agoffload.Naive, agoffload.Optimized} {
		e := newEngine(t, Config{GradMode: mode})
		losses := trainK(t, e, 4)
		snap := paramsSnapshot(e.Model())
		if ref == nil {
			ref, refLoss = snap, losses
			continue
		}
		for i := range losses {
			if losses[i] != refLoss[i] {
				t.Fatalf("%v: loss[%d] = %v differs from serialized %v", mode, i, losses[i], refLoss[i])
			}
		}
		for i := range snap {
			if snap[i] != ref[i] {
				t.Fatalf("%v: parameter %d differs after training (staleness!)", mode, i)
			}
		}
	}
}

// TestOffloadTransparency: swapping every block's activations through the
// NVMe store yields bit-identical training to recomputing everything.
func TestOffloadTransparency(t *testing.T) {
	recompute := newEngine(t, Config{GradMode: agoffload.Optimized})
	lossRec := trainK(t, recompute, 3)

	swapAll := map[int]Tier{0: SwapSSD, 1: SwapSSD, 2: SwapSSD}
	offload := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swapAll})
	lossOff := trainK(t, offload, 3)

	for i := range lossRec {
		if lossRec[i] != lossOff[i] {
			t.Fatalf("loss[%d]: recompute %v vs offloaded %v", i, lossRec[i], lossOff[i])
		}
	}
	a, b := paramsSnapshot(recompute.Model()), paramsSnapshot(offload.Model())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("offloaded training diverged from recompute training")
		}
	}
	// And the traffic actually happened.
	st := offload.Stats()
	if st.ActBytesOffload == 0 || st.ActBytesFetched != st.ActBytesOffload/3*3 {
		t.Errorf("activation traffic not accounted: %+v", st)
	}
	if st.RecomputedBlocks != 0 {
		t.Errorf("offload engine recomputed %d blocks", st.RecomputedBlocks)
	}
	// Two of the three blocks per step: the last block's cache is the one
	// forward just built, kept across the head instead of rebuilt.
	if recompute.Stats().RecomputedBlocks != 6 {
		t.Errorf("recompute engine recomputed %d blocks, want 6", recompute.Stats().RecomputedBlocks)
	}
}

// TestLossTraceTiersBitIdentical: which vector kernels the machine selects
// decides speed only. Three steps at a configuration whose products fill the
// GEMM tile's full and half panels and whose Linear depths sit on the long side
// of the dot tile's length rule (attention's on the short side) trace the
// same loss bits and leave the same parameters under every vector level this
// machine has.
func TestLossTraceTiersBitIdentical(t *testing.T) {
	levels := simd.Levels()[1:]
	if len(levels) < 2 {
		t.Skip("fewer than two vector levels on this machine")
	}
	var wantLoss []float64
	var wantParams []float32
	for _, level := range levels {
		restore := simd.ForceLevel(level)
		e := newEngine(t, Config{
			Model:    nn.Config{Vocab: 48, Seq: 16, Hidden: 64, Heads: 2, Layers: 2, Batch: 2, Seed: 77},
			GradMode: agoffload.Optimized,
			Swap:     map[int]Tier{0: SwapSSD},
		})
		loss := trainK(t, e, 3)
		// Close joins every goroutine that runs kernels before the level
		// changes under them.
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		restore()
		params := paramsSnapshot(e.Model())
		if wantLoss == nil {
			wantLoss, wantParams = loss, params
			continue
		}
		for i := range loss {
			if math.Float64bits(loss[i]) != math.Float64bits(wantLoss[i]) {
				t.Fatalf("loss[%d] = %v on %s, %v on %s", i, loss[i], level, wantLoss[i], levels[0])
			}
		}
		for i := range params {
			if math.Float32bits(params[i]) != math.Float32bits(wantParams[i]) {
				t.Fatalf("parameter %d = %v on %s, %v on %s", i, params[i], level, wantParams[i], levels[0])
			}
		}
	}
}

// TestMixedOffload: a partial swap set (the planner's normal output) also
// matches exactly.
func TestMixedOffload(t *testing.T) {
	full := newEngine(t, Config{GradMode: agoffload.Serialized})
	ref := trainK(t, full, 2)

	mixed := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: map[int]Tier{1: SwapSSD}})
	got := trainK(t, mixed, 2)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("loss[%d] differs with partial offload", i)
		}
	}
}

// TestLossDecreases: fine-tuning on a fixed batch reduces loss.
func TestLossDecreases(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized})
	cfg := e.cfg.Model
	tokens, targets := data(cfg, 42)
	var first, last float64
	for s := 0; s < 10; s++ {
		loss, err := e.TrainStep(tokens, targets)
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", first, last)
	}
}

// TestMasterWeightsStayFP32: after training, the stored masters are not all
// on the fp16 grid (they accumulate fp32 precision), while the working
// copies are exactly their fp16 rounding.
func TestMasterWeightsStayFP32(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized})
	trainK(t, e, 3)
	e.Stats() // joins the trailing write-back: the optimizer is read raw below
	groups := e.Model().ParamGroups()
	g := groups[1] // block0
	masters, _, _, err := e.optimizer.State(g)
	if err != nil {
		t.Fatal(err)
	}
	offGrid := 0
	off := 0
	for _, p := range g.Params {
		for i := range p.W.Data {
			if p.W.Data[i] != tensor.RoundFP16(masters[off]) {
				t.Fatalf("P16 != fp16(P32) at %s[%d]", p.Name, i)
			}
			if masters[off] != tensor.RoundFP16(masters[off]) {
				offGrid++
			}
			off++
		}
	}
	if offGrid == 0 {
		t.Error("all masters are on the fp16 grid; fp32 accumulation is not happening")
	}
}

// TestSSDFaultPropagates: a failing device surfaces as a training error
// when activations are offloaded — and, the failed optimizer updates having
// latched, again from Close (so not newEngine, whose cleanup wants a clean
// Close).
func TestSSDFaultPropagates(t *testing.T) {
	e, err := New(Config{Model: miniConfig(), Devices: 3, GradMode: agoffload.Serialized, Swap: map[int]Tier{0: SwapSSD}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.cfg.Model
	tokens, targets := data(cfg, 1)
	boom := errors.New("media failure")
	e.Array().InjectFault(0, boom)
	if _, err := e.TrainStep(tokens, targets); err == nil || !errors.Is(err, boom) {
		t.Fatalf("TrainStep with failed device = %v, want media failure", err)
	}
	if err := e.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close after the failed update = %v, want the latched media failure", err)
	}
}

// TestBlockForwardFLOPsMatchItsProducts: what the planner charges a block is
// two FLOPs per multiply-add of the matrix products one Block.Forward runs,
// counted the way the kernels' drivers count their work (m·k·n, half of it for
// a causal seq×seq square) — checked by hand for one small geometry and
// against the sum at the benchmark's four.
func TestBlockForwardFLOPsMatchItsProducts(t *testing.T) {
	multiplyAdds := func(cfg nn.Config) int64 {
		tok, h, s := int64(cfg.Batch*cfg.Seq), int64(cfg.Hidden), int64(cfg.Seq)
		heads, dh := int64(cfg.Batch*cfg.Heads), h/int64(cfg.Heads)
		return tok*h*3*h + // QKV: [tok,h]·[h,3h]
			heads*(s*dh*s/2) + // scores: q·kᵀ, the cells on and below the diagonal
			heads*(s*s*dh/2) + // context: P·v, P lower-triangular
			tok*h*h + // output projection
			tok*h*4*h + tok*4*h*h // FC1, FC2
	}
	// batch 2, seq 4, hidden 8, 2 heads: 8 tokens, 4 (batch, head) pairs of
	// width 4. QKV 8·8·24 = 1536, scores 4·(4·4·4/2) = 128, context 128,
	// out 8·8·8 = 512, FC1 and FC2 8·8·32 = 2048 each: 6400 multiply-adds.
	small := nn.Config{Batch: 2, Seq: 4, Hidden: 8, Heads: 2}
	if got, sum := blockForwardFLOPs(small), multiplyAdds(small); got != 12800 || sum != 6400 {
		t.Fatalf("small geometry: planner charges %v FLOPs, products sum to %d multiply-adds; want 12800 and 6400", got, sum)
	}
	for _, cfg := range []nn.Config{
		miniConfig(),
		{Seq: 64, Hidden: 32, Heads: 2, Batch: 2},   // io_mixed
		{Seq: 64, Hidden: 64, Heads: 4, Batch: 2},   // opt_stream
		{Seq: 128, Hidden: 256, Heads: 8, Batch: 2}, // compute
		{Seq: 64, Hidden: 128, Heads: 4, Batch: 2},  // accum_ckpt_file
	} {
		if got, want := blockForwardFLOPs(cfg), units.FLOPs(2*multiplyAdds(cfg)); got != want {
			t.Errorf("%+v: planner charges %v FLOPs a block, its products execute %v", cfg, got, want)
		}
	}
}

// TestProfileAndPlan: the engine's profiling + Algorithm 1 integration
// returns a consistent swap set.
func TestProfileAndPlan(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized})
	cfg := e.cfg.Model
	tokens, _ := data(cfg, 5)
	// A GPU-bound rate profile: swapping everything should win (Case 2).
	pl, swap, err := e.ProfileAndPlan(tokens, HWRates{
		THPG: units.TFLOPS(0.000001), // absurdly slow compute
		BWG:  units.GBps(100), BWS2M: units.GBps(100), BWM2S: units.GBps(100),
		MemAvail: units.GiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(swap) != cfg.Layers {
		t.Errorf("GPU-bound plan swapped %d of %d blocks (case %v)", len(swap), cfg.Layers, pl.Case)
	}
	// A PCIe-bound profile: swap nothing beyond the boundary.
	_, swap, err = e.ProfileAndPlan(tokens, HWRates{
		THPG: units.TFLOPS(1e9),
		BWG:  1, BWS2M: 1, BWM2S: 1,
		MemAvail: units.GiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(swap) != 0 {
		t.Errorf("PCIe-bound plan swapped %d blocks, want 0", len(swap))
	}
	// The swap set can be installed and trained with.
	if err := e.SetSwap(map[int]Tier{0: SwapSSD}); err != nil {
		t.Fatal(err)
	}
	tokens, targets := data(cfg, 6)
	if _, err := e.TrainStep(tokens, targets); err != nil {
		t.Fatal(err)
	}
}

// TestFileBackedEngine: the whole loop works with real file I/O.
func TestFileBackedEngine(t *testing.T) {
	e := newEngine(t, Config{
		GradMode: agoffload.Optimized,
		Swap:     map[int]Tier{0: SwapSSD, 1: SwapSSD, 2: SwapSSD},
		Dir:      t.TempDir(),
	})
	losses := trainK(t, e, 2)
	if len(losses) != 2 || losses[0] <= 0 {
		t.Fatalf("file-backed training failed: %v", losses)
	}
	if e.Stats().SSD.BytesWritten == 0 {
		t.Error("no bytes written to the file-backed array")
	}
}

// TestCacheCodecRoundTrip: encode/decode of a real cache is lossless.
func TestCacheCodecRoundTrip(t *testing.T) {
	e := newEngine(t, Config{})
	cfg := e.cfg.Model
	tokens, _ := data(cfg, 3)
	x, err := e.Model().Embed(tokens)
	if err != nil {
		t.Fatal(err)
	}
	_, c, err := e.Model().Blocks[0].Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, e.blobLen)
	if err := e.arena.encode(blob, c); err != nil {
		t.Fatal(err)
	}
	got := newCache(e.geom, nil)
	if err := e.arena.decode(got, blob, x); err != nil {
		t.Fatal(err)
	}
	pairs := [][2]*tensor.Tensor{
		{c.LN1Out, got.LN1Out}, {c.Attn.QKV, got.Attn.QKV}, {c.Attn.Ctx, got.Attn.Ctx},
		{c.Attn.Probs, got.Attn.Probs}, {c.AttnY, got.AttnY}, {c.Res1, got.Res1}, {c.LN2Out, got.LN2Out},
		{c.FC1Out, got.FC1Out}, {c.GeluOut, got.GeluOut},
	}
	for k, pair := range pairs {
		for i := range pair[0].Data {
			if pair[0].Data[i] != pair[1].Data[i] {
				t.Fatalf("cache tensor %d differs at %d", k, i)
			}
		}
	}
	if want := 2 * sumNumel(cacheTensors(got)); want != e.geom.blobBytes() {
		t.Fatalf("blobBytes() = %d, the tensors of a shaped cache encode to %d", e.geom.blobBytes(), want)
	}
	// Corrupted blobs are rejected.
	if err := e.arena.decode(got, blob[:len(blob)-2], x); err == nil {
		t.Error("truncated blob accepted")
	}
	if err := e.arena.decode(got, append(blob, 0, 0), x); err == nil {
		t.Error("oversized blob accepted")
	}
}

func sumNumel(ts [9]*tensor.Tensor) int {
	n := 0
	for _, t := range ts {
		n += t.Numel()
	}
	return n
}

// TestEngineMatchesPlainModel: the engine's first step equals a plain
// nn.ForwardBackward + out-of-core Adam applied manually (the engine adds
// data movement, not different math).
func TestEngineMatchesPlainModel(t *testing.T) {
	cfgM := miniConfig()
	tokens, targets := data(cfgM, 9)

	e := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: map[int]Tier{1: SwapSSD}})
	engineLoss, err := e.TrainStep(tokens, targets)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := nn.NewModel(cfgM)
	if err != nil {
		t.Fatal(err)
	}
	ooc := opt.NewOutOfCoreAdam(opt.MemStore{}, opt.DefaultAdam(), "ref")
	for _, g := range ref.ParamGroups() {
		if err := ooc.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	ref.ZeroGrads()
	refLoss, err := ref.ForwardBackward(tokens, targets, map[int]bool{0: true, 1: true, 2: true})
	if err != nil {
		t.Fatal(err)
	}
	ooc.BeginStep()
	for _, g := range ref.ParamGroups() {
		if err := ooc.UpdateGroup(g); err != nil {
			t.Fatal(err)
		}
	}

	if engineLoss != refLoss {
		t.Fatalf("engine loss %v != reference loss %v", engineLoss, refLoss)
	}
	a, b := paramsSnapshot(e.Model()), paramsSnapshot(ref)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("engine parameters diverged from plain model + optimizer")
		}
	}
}

// miniConfigWith returns the standard test config with a different layer
// count, for shape-mismatch tests.
func miniConfigWith(layers int) nn.Config {
	cfg := miniConfig()
	cfg.Layers = layers
	return cfg
}
