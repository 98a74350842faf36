package nn

import (
	"math"
	"math/rand"
	"testing"

	"ratel/internal/tensor"
	"ratel/internal/tensor/pool"
)

func tinyConfig() Config {
	return Config{Vocab: 11, Seq: 6, Hidden: 8, Heads: 2, Layers: 2, Batch: 2, Seed: 42}
}

func randomData(cfg Config, seed int64) (tokens, targets [][]int) {
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

// TestNumericalGradients validates every analytic gradient in the model
// against central finite differences (with fp16-grid rounding disabled so
// the loss is locally smooth).
func TestNumericalGradients(t *testing.T) {
	defer SetFP16Grid(SetFP16Grid(false))
	cfg := tinyConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens, targets := randomData(cfg, 1)
	m.ZeroGrads()
	if _, err := m.ForwardBackward(tokens, targets, nil); err != nil {
		t.Fatal(err)
	}

	lossAt := func() float64 {
		saved := map[string][]float32{}
		for _, p := range m.Params() {
			saved[p.Name] = append([]float32(nil), p.G.Data...)
			p.G.Zero()
		}
		loss, err := m.ForwardBackward(tokens, targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m.Params() {
			copy(p.G.Data, saved[p.Name])
		}
		return loss
	}

	rng := rand.New(rand.NewSource(2))
	const h = 1e-3
	checked := 0
	for _, p := range m.Params() {
		// Sample a few coordinates per parameter tensor.
		for k := 0; k < 3 && k < p.W.Numel(); k++ {
			i := rng.Intn(p.W.Numel())
			analytic := float64(p.G.Data[i])
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			up := lossAt()
			p.W.Data[i] = orig - h
			down := lossAt()
			p.W.Data[i] = orig
			numeric := (up - down) / (2 * h)
			tol := 1e-3 + 2e-2*math.Max(math.Abs(analytic), math.Abs(numeric))
			if math.Abs(analytic-numeric) > tol {
				t.Errorf("%s[%d]: analytic %.6f vs numeric %.6f", p.Name, i, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Fatalf("only %d gradient coordinates checked", checked)
	}
}

// TestRecomputeEquivalence: discarding and recomputing block caches yields
// bit-identical gradients (the engine's correctness premise for activation
// recomputation).
func TestRecomputeEquivalence(t *testing.T) {
	cfg := tinyConfig()
	tokens, targets := randomData(cfg, 3)

	run := func(recompute map[int]bool) (float64, map[string][]float32) {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.RoundParamsFP16()
		m.ZeroGrads()
		loss, err := m.ForwardBackward(tokens, targets, recompute)
		if err != nil {
			t.Fatal(err)
		}
		grads := map[string][]float32{}
		for _, p := range m.Params() {
			grads[p.Name] = append([]float32(nil), p.G.Data...)
		}
		return loss, grads
	}

	lossKeep, gradsKeep := run(nil)
	lossRec, gradsRec := run(map[int]bool{0: true, 1: true})
	if lossKeep != lossRec {
		t.Fatalf("loss differs: %v vs %v", lossKeep, lossRec)
	}
	for name, g := range gradsKeep {
		for i := range g {
			if g[i] != gradsRec[name][i] {
				t.Fatalf("gradient %s[%d] differs: %v vs %v", name, i, g[i], gradsRec[name][i])
			}
		}
	}
}

// TestDeterminism: two identical runs produce identical losses and grads.
func TestDeterminism(t *testing.T) {
	cfg := tinyConfig()
	tokens, targets := randomData(cfg, 4)
	losses := [2]float64{}
	for trial := 0; trial < 2; trial++ {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		loss, err := m.ForwardBackward(tokens, targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		losses[trial] = loss
	}
	if losses[0] != losses[1] {
		t.Fatalf("nondeterministic loss: %v vs %v", losses[0], losses[1])
	}
}

// TestLossDecreasesUnderSGD: a few plain-SGD steps reduce the loss on a
// fixed batch.
func TestLossDecreasesUnderSGD(t *testing.T) {
	cfg := tinyConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens, targets := randomData(cfg, 5)
	var first, last float64
	for step := 0; step < 8; step++ {
		m.ZeroGrads()
		loss, err := m.ForwardBackward(tokens, targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		for _, p := range m.Params() {
			for i := range p.W.Data {
				p.W.Data[i] -= 0.05 * p.G.Data[i]
			}
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", first, last)
	}
}

// TestActivationBytesAccounting: a cache's fp16 footprint is positive and
// scales with tokens.
func TestActivationBytesAccounting(t *testing.T) {
	cfg := tinyConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens, _ := randomData(cfg, 6)
	x, err := m.Embed(tokens)
	if err != nil {
		t.Fatal(err)
	}
	_, c, err := m.Blocks[0].Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if c.ActivationBytes() <= 0 {
		t.Error("non-positive activation accounting")
	}
	var nilCache *BlockCache
	if nilCache.ActivationBytes() != 0 {
		t.Error("nil cache should account zero bytes")
	}
}

// TestParamGroupsCoverAllParams: groups partition the parameter set.
func TestParamGroupsCoverAllParams(t *testing.T) {
	m, err := NewModel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range m.ParamGroups() {
		total += g.NumParams()
	}
	if total != m.NumParams() {
		t.Errorf("groups cover %d params, model has %d", total, m.NumParams())
	}
	if len(m.ParamGroups()) != m.Cfg.Layers+2 {
		t.Errorf("groups = %d, want layers+2", len(m.ParamGroups()))
	}
}

// TestCausalMasking: changing a future token must not affect earlier
// positions' logits.
func TestCausalMasking(t *testing.T) {
	cfg := tinyConfig()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens, _ := randomData(cfg, 7)
	logitsFor := func() *tensor.Tensor {
		x, err := m.Embed(tokens)
		if err != nil {
			t.Fatal(err)
		}
		h := x
		for _, b := range m.Blocks {
			y, _, err := b.Forward(h)
			if err != nil {
				t.Fatal(err)
			}
			h = y
		}
		_, logits, err := m.HeadForward(h)
		if err != nil {
			t.Fatal(err)
		}
		return logits
	}
	before := logitsFor().Clone()
	tokens[0][cfg.Seq-1] = (tokens[0][cfg.Seq-1] + 1) % cfg.Vocab
	after := logitsFor()
	v := cfg.Vocab
	// Positions 0..seq-2 of sequence 0 must be unchanged.
	for s := 0; s < cfg.Seq-1; s++ {
		for j := 0; j < v; j++ {
			if before.Data[s*v+j] != after.Data[s*v+j] {
				t.Fatalf("future token leaked into position %d", s)
			}
		}
	}
}

// TestValidationErrors covers the input checks.
func TestValidationErrors(t *testing.T) {
	if _, err := NewModel(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewModel(Config{Vocab: 4, Seq: 2, Hidden: 5, Heads: 2, Layers: 1, Batch: 1}); err == nil {
		t.Error("indivisible heads accepted")
	}
	cfg := tinyConfig()
	m, _ := NewModel(cfg)
	if _, err := m.Embed([][]int{{0}}); err == nil {
		t.Error("wrong batch accepted")
	}
	if _, err := m.Embed(make([][]int, cfg.Batch)); err == nil {
		t.Error("short sequences accepted")
	}
	bad := make([][]int, cfg.Batch)
	for i := range bad {
		bad[i] = make([]int, cfg.Seq)
		bad[i][0] = cfg.Vocab + 5
	}
	if _, err := m.Embed(bad); err == nil {
		t.Error("out-of-vocab token accepted")
	}
	logits := tensor.New(2, cfg.Vocab)
	if _, _, err := new(Model).CrossEntropy(logits, [][]int{{0, 1, 2}}); err == nil {
		t.Error("target count mismatch accepted")
	}
	if _, _, err := new(Model).CrossEntropy(logits, [][]int{{99}, {0}}); err == nil {
		t.Error("out-of-vocab target accepted")
	}
}

// TestTiedEmbeddingsGradients: with weight tying, the head contributes its
// gradient to the token embedding; finite differences confirm the combined
// gradient.
func TestTiedEmbeddingsGradients(t *testing.T) {
	defer SetFP16Grid(SetFP16Grid(false))
	cfg := tinyConfig()
	cfg.TieEmbeddings = true
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens, targets := randomData(cfg, 23)
	m.ZeroGrads()
	if _, err := m.ForwardBackward(tokens, targets, nil); err != nil {
		t.Fatal(err)
	}
	// No head parameters exposed under tying.
	for _, p := range m.Params() {
		if p.Name == "head.w" || p.Name == "head.b" {
			t.Fatal("tied model exposes head parameters")
		}
	}
	// Spot-check embedding gradients numerically (they now carry both the
	// embedding and the head contribution).
	const h = 1e-3
	for _, i := range []int{0, 5, 33} {
		analytic := float64(m.DTokEmb.Data[i])
		orig := m.TokEmb.Data[i]
		lossAt := func(v float32) float64 {
			m.TokEmb.Data[i] = v
			saved := append([]float32(nil), m.DTokEmb.Data...)
			m.ZeroGrads()
			loss, err := m.ForwardBackward(tokens, targets, nil)
			if err != nil {
				t.Fatal(err)
			}
			copy(m.DTokEmb.Data, saved)
			return loss
		}
		up := lossAt(orig + h)
		down := lossAt(orig - h)
		m.TokEmb.Data[i] = orig
		numeric := (up - down) / (2 * h)
		tol := 1e-3 + 2e-2*math.Max(math.Abs(analytic), math.Abs(numeric))
		if math.Abs(analytic-numeric) > tol {
			t.Errorf("tied tok_emb[%d]: analytic %.6f vs numeric %.6f", i, analytic, numeric)
		}
	}
}

// TestTiedModelTrainsAndGenerates: the tied configuration runs the full
// loop, with fewer parameters than the untied one.
func TestTiedModelTrainsAndGenerates(t *testing.T) {
	cfg := tinyConfig()
	untied, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TieEmbeddings = true
	tied, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tied.NumParams() >= untied.NumParams() {
		t.Errorf("tied params %d should be fewer than untied %d", tied.NumParams(), untied.NumParams())
	}
	tokens, targets := randomData(cfg, 29)
	var first, last float64
	for s := 0; s < 8; s++ {
		tied.ZeroGrads()
		loss, err := tied.ForwardBackward(tokens, targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			first = loss
		}
		last = loss
		for _, p := range tied.Params() {
			for i := range p.W.Data {
				p.W.Data[i] -= 0.05 * p.G.Data[i]
			}
		}
	}
	if last >= first {
		t.Fatalf("tied model did not learn: %.4f -> %.4f", first, last)
	}
	if _, err := tied.Generate([]int{1, 2}, 2); err != nil {
		t.Fatal(err)
	}
}

// TestElementwiseKernelsNeverDispatch: the memory-bound kernels run inline on
// the caller whatever the parallelism and however large the tensor — at four
// threads a 1 Mi-element add, bias, scale and both fp16 rounds and a
// 4096 x 256 LayerNorm leave the pool's job counter where it was
// (EXPERIMENTS.md, "Element-wise kernels run inline"; make test-procs repeats
// it at GOMAXPROCS 1, 2 and 4).
func TestElementwiseKernelsNeverDispatch(t *testing.T) {
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	tensor.SetParallelism(4)

	rng := rand.New(rand.NewSource(9))
	x, y, bias := tensor.New(1024, 1024), tensor.New(1024, 1024), tensor.New(1024)
	x.RandInit(rng, 1)
	y.RandInit(rng, 1)
	rows := tensor.New(4096, 256)
	rows.RandInit(rng, 1)
	ln := NewLayerNorm("ln", 256)

	before := pool.DefaultStats().Jobs
	if err := tensor.AddInPlace(x, y); err != nil {
		t.Fatal(err)
	}
	if err := tensor.AddBias(x, bias); err != nil {
		t.Fatal(err)
	}
	x.Scale(0.5)
	x.RoundFP16InPlace()
	if err := tensor.RoundFP16Into(y.Data, x.Data); err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Forward(rows); err != nil {
		t.Fatal(err)
	}
	if jobs := pool.DefaultStats().Jobs - before; jobs != 0 {
		t.Errorf("element-wise kernels dispatched %d pool job(s) at parallelism 4, want 0", jobs)
	}
}
