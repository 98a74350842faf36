package nn

import (
	"fmt"
	"math"
	"math/rand"

	"ratel/internal/tensor"
)

// Config sizes a mini decoder-only language model.
type Config struct {
	Vocab  int
	Seq    int
	Hidden int
	Heads  int
	Layers int
	Batch  int
	Seed   int64
	// Dropout, when positive, enables counter-based dropout after the
	// attention projection and the MLP of every block. Masks are a pure
	// function of (seed, step, site, element), so recomputation replays
	// them exactly.
	Dropout float64
	// TieEmbeddings shares the LM head's weight matrix with the token
	// embedding (the paper's models tie them, which is why the head adds no
	// parameters to P and no optimizer work of its own).
	TieEmbeddings bool
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.Vocab < 2 || c.Seq < 1 || c.Hidden < 1 || c.Heads < 1 || c.Layers < 1 || c.Batch < 1:
		return fmt.Errorf("nn: non-positive dimension in %+v", c)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("nn: hidden %d not divisible by heads %d", c.Hidden, c.Heads)
	}
	return nil
}

// Model is the mini GPT.
type Model struct {
	Cfg     Config
	TokEmb  *tensor.Tensor // [V, d]
	PosEmb  *tensor.Tensor // [S, d]
	DTokEmb *tensor.Tensor
	DPosEmb *tensor.Tensor
	Blocks  []*Block
	FinalLN *LayerNorm
	Head    *Linear // [d, V]

	step uint64 // forward-pass counter driving dropout masks
	drop *Dropout

	// arena is where the step-lived tensors of Embed, the head and the loss
	// come from (SetArena; nil is the heap); targets is the loss's flattened
	// target list, reused across steps.
	arena   *tensor.Arena
	targets []int

	// params caches the flat parameter list: the model's structure is fixed
	// after construction, and per-step callers (ZeroGrads) must not rebuild
	// the per-layer slices every iteration.
	params []Param
}

// SetArena installs the allocators of a training pass on the model and its
// layers: step for the tensors that live until the pass ends (embedding, block
// inputs and outputs, head, loss, the gradients between blocks), block for
// everything else a block's Forward, Recompute or Backward produces, its
// cache included — which the caller may Release whenever no cache from it is
// wanted any more. nil (the default) is the heap for either.
func (m *Model) SetArena(step, block *tensor.Arena) {
	m.arena, m.FinalLN.arena, m.Head.arena = step, step, step
	for _, b := range m.Blocks {
		b.step, b.scope = step, block
		b.LN1.arena, b.LN2.arena, b.FC1.arena, b.FC2.arena = block, block, block, block
		b.Attn.arena, b.Attn.QKV.arena, b.Attn.Out.arena = block, block, block
	}
}

// NextStep advances the dropout counter; call once per training pass
// (recomputation within a pass replays the same masks).
func (m *Model) NextStep() { m.step++ }

// Step reports the forward-pass counter, for checkpointing.
func (m *Model) Step() uint64 { return m.step }

// SetStep restores the forward-pass counter from a checkpoint.
func (m *Model) SetStep(s uint64) { m.step = s }

// NewModel builds and deterministically initializes a model.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		Cfg:     cfg,
		TokEmb:  tensor.New(cfg.Vocab, cfg.Hidden),
		PosEmb:  tensor.New(cfg.Seq, cfg.Hidden),
		DTokEmb: tensor.New(cfg.Vocab, cfg.Hidden),
		DPosEmb: tensor.New(cfg.Seq, cfg.Hidden),
		FinalLN: NewLayerNorm("final_ln", cfg.Hidden),
		Head:    NewLinear("head", cfg.Hidden, cfg.Vocab, rng),
	}
	m.TokEmb.RandInit(rng, 0.02)
	m.PosEmb.RandInit(rng, 0.02)
	if cfg.Dropout > 0 {
		if cfg.Dropout >= 1 {
			return nil, fmt.Errorf("nn: dropout %v would drop everything", cfg.Dropout)
		}
		m.drop = &Dropout{P: float32(cfg.Dropout), Seed: uint64(cfg.Seed) ^ 0x5261_7465_6c21, Step: &m.step}
	}
	for i := 0; i < cfg.Layers; i++ {
		b, err := NewBlock(fmt.Sprintf("block%d", i), cfg.Hidden, cfg.Heads, cfg.Batch, cfg.Seq, rng)
		if err != nil {
			return nil, err
		}
		b.Drop = m.drop
		b.site = uint64(i) * 4
		m.Blocks = append(m.Blocks, b)
	}
	return m, nil
}

// Embed produces the input activations for token batch tokens
// [batch][seq], rounded to the fp16 grid.
func (m *Model) Embed(tokens [][]int) (*tensor.Tensor, error) {
	cfg := m.Cfg
	if len(tokens) != cfg.Batch {
		return nil, fmt.Errorf("nn: batch %d, want %d", len(tokens), cfg.Batch)
	}
	x := m.arena.New(cfg.Batch*cfg.Seq, cfg.Hidden)
	for bi, row := range tokens {
		if len(row) != cfg.Seq {
			return nil, fmt.Errorf("nn: sequence %d has %d tokens, want %d", bi, len(row), cfg.Seq)
		}
		for s, tok := range row {
			if tok < 0 || tok >= cfg.Vocab {
				return nil, fmt.Errorf("nn: token %d out of vocabulary", tok)
			}
			dst := x.Data[(bi*cfg.Seq+s)*cfg.Hidden : (bi*cfg.Seq+s+1)*cfg.Hidden]
			for j := 0; j < cfg.Hidden; j++ {
				dst[j] = m.TokEmb.Data[tok*cfg.Hidden+j] + m.PosEmb.Data[s*cfg.Hidden+j]
			}
		}
	}
	roundGrid(x)
	return x, nil
}

// EmbedBackward accumulates embedding gradients from dx.
func (m *Model) EmbedBackward(tokens [][]int, dx *tensor.Tensor) error {
	cfg := m.Cfg
	for bi, row := range tokens {
		for s, tok := range row {
			src := dx.Data[(bi*cfg.Seq+s)*cfg.Hidden : (bi*cfg.Seq+s+1)*cfg.Hidden]
			for j := 0; j < cfg.Hidden; j++ {
				m.DTokEmb.Data[tok*cfg.Hidden+j] += src[j]
				m.DPosEmb.Data[s*cfg.Hidden+j] += src[j]
			}
		}
	}
	return nil
}

// HeadForward applies the final layer norm and LM head. With tied
// embeddings the logits are lnOut·TokEmbᵀ; otherwise a separate projection.
func (m *Model) HeadForward(x *tensor.Tensor) (lnOut, logits *tensor.Tensor, err error) {
	lnOut, err = m.FinalLN.Forward(x)
	if err != nil {
		return nil, nil, err
	}
	if m.Cfg.TieEmbeddings {
		logits, err = tensor.MatMulT(m.arena, lnOut, m.TokEmb)
		if err != nil {
			return nil, nil, err
		}
		roundGrid(logits)
		return lnOut, logits, nil
	}
	logits, err = m.Head.Forward(lnOut)
	if err != nil {
		return nil, nil, err
	}
	return lnOut, logits, nil
}

// HeadBackward propagates dlogits through the head and final norm.
func (m *Model) HeadBackward(x, lnOut, dlogits *tensor.Tensor) (*tensor.Tensor, error) {
	var dln *tensor.Tensor
	var err error
	if m.Cfg.TieEmbeddings {
		// dTokEmb += dlogitsᵀ·lnOut; dln = dlogits·TokEmb.
		demb, err := tensor.TMatMul(m.arena, dlogits, lnOut)
		if err != nil {
			return nil, err
		}
		if err := tensor.AddInPlace(m.DTokEmb, demb); err != nil {
			return nil, err
		}
		if dln, err = tensor.MatMul(m.arena, dlogits, m.TokEmb); err != nil {
			return nil, err
		}
	} else {
		if dln, err = m.Head.Backward(lnOut, dlogits); err != nil {
			return nil, err
		}
	}
	return m.FinalLN.Backward(x, dln)
}

// CrossEntropy computes the mean next-token loss and dlogits for targets
// [batch][seq].
func (m *Model) CrossEntropy(logits *tensor.Tensor, targets [][]int) (float64, *tensor.Tensor, error) {
	n, v, err := logits.Dims2()
	if err != nil {
		return 0, nil, err
	}
	flat := m.targets[:0]
	for _, row := range targets {
		flat = append(flat, row...)
	}
	m.targets = flat
	if len(flat) != n {
		return 0, nil, fmt.Errorf("nn: %d targets for %d positions", len(flat), n)
	}
	dlogits := m.arena.New(n, v)
	var loss float64
	for i := 0; i < n; i++ {
		row := logits.Data[i*v : (i+1)*v]
		max := row[0]
		for _, val := range row {
			if val > max {
				max = val
			}
		}
		var sum float64
		for _, val := range row {
			sum += math.Exp(float64(val - max))
		}
		logZ := math.Log(sum) + float64(max)
		tgt := flat[i]
		if tgt < 0 || tgt >= v {
			return 0, nil, fmt.Errorf("nn: target %d out of vocabulary", tgt)
		}
		loss += logZ - float64(row[tgt])
		invN := 1 / float64(n)
		for j := 0; j < v; j++ {
			p := math.Exp(float64(row[j])-logZ) * invN
			dlogits.Data[i*v+j] = float32(p)
		}
		dlogits.Data[i*v+tgt] -= float32(invN)
	}
	return loss / float64(n), dlogits, nil
}

// Params lists every parameter in a stable order — embeddings, blocks, final
// norm, head: the groups' parameters, group after group. The returned slice
// is cached and shared — treat it as read-only.
func (m *Model) Params() []Param {
	if m.params == nil {
		for _, g := range m.ParamGroups() {
			m.params = append(m.params, g.Params...)
		}
	}
	return m.params
}

// ParamGroups partitions parameters into the offloading/optimizer chunks
// the engine streams: one group per block, plus an embedding group and a
// head group (Table II's per-tensor lifecycle at block granularity).
func (m *Model) ParamGroups() []ParamGroup {
	groups := []ParamGroup{{Name: "embedding", Params: []Param{
		{"tok_emb", m.TokEmb, m.DTokEmb},
		{"pos_emb", m.PosEmb, m.DPosEmb},
	}}}
	for _, b := range m.Blocks {
		groups = append(groups, ParamGroup{Name: b.Name, Params: b.Params()})
	}
	head := ParamGroup{Name: "head"}
	head.Params = append(head.Params, m.FinalLN.Params()...)
	if !m.Cfg.TieEmbeddings {
		head.Params = append(head.Params, m.Head.Params()...)
	}
	return append(groups, head)
}

// ParamGroup is a named set of parameters streamed and updated together.
type ParamGroup struct {
	Name   string
	Params []Param
}

// NumParams is the group's total parameter count.
func (g ParamGroup) NumParams() int {
	n := 0
	for _, p := range g.Params {
		n += p.W.Numel()
	}
	return n
}

// ZeroGrads clears all gradient accumulators.
func (m *Model) ZeroGrads() {
	for _, p := range m.Params() {
		p.G.Zero()
	}
}

// NumParams is the model's total parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.W.Numel()
	}
	return n
}

// RoundParamsFP16 rounds every parameter onto the fp16 grid — the engine
// keeps the working copies as P16, with fp32 masters in the optimizer.
func (m *Model) RoundParamsFP16() {
	for _, p := range m.Params() {
		p.W.RoundFP16InPlace()
	}
}
