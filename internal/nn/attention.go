package nn

import (
	"fmt"
	"math"
	"math/rand"

	"ratel/internal/tensor"
	"ratel/internal/tensor/pool"
	"ratel/internal/tensor/simd"
)

// Attention is multi-head causal self-attention.
type Attention struct {
	Name  string
	Heads int
	Dim   int
	QKV   *Linear // [d, 3d]
	Out   *Linear // [d, d]

	// scratch holds one headScratch per (batch, head) backward task, allocated
	// on first use and reused for the layer's lifetime: per-head temporaries
	// dominated steady-state allocation churn. Backward never runs concurrently
	// with itself on one layer, and each task touches only its own entry, so no
	// locking is needed.
	scratch    []headScratch
	scratchSeq int
}

// headScratch is one attention task's reusable backward temporaries. Both are
// written on and below the diagonal only, every such cell on each use: dprobs'
// upper triangle is never read, and dscores' is the +0 of its allocation for
// the layer's lifetime, which is what lets its products skip it. So reuse is
// bit-transparent.
type headScratch struct {
	dprobs, dscores *tensor.Tensor // [seq, seq]
}

// scratchFor returns the per-task scratch table for the given geometry,
// (re)allocating when batch or seq changed since the last call.
func (a *Attention) scratchFor(batch, seq int) []headScratch {
	if a.scratch != nil && a.scratchSeq == seq && len(a.scratch) == batch*a.Heads {
		return a.scratch
	}
	ws := make([]headScratch, batch*a.Heads)
	for i := range ws {
		ws[i] = headScratch{dprobs: tensor.New(seq, seq), dscores: tensor.New(seq, seq)}
	}
	a.scratch, a.scratchSeq = ws, seq
	return ws
}

// NewAttention builds a causal multi-head attention layer.
func NewAttention(name string, dim, heads int, rng *rand.Rand) (*Attention, error) {
	if dim%heads != 0 {
		return nil, fmt.Errorf("nn: %s: dim %d not divisible by %d heads", name, dim, heads)
	}
	return &Attention{
		Name:  name,
		Heads: heads,
		Dim:   dim,
		QKV:   NewLinear(name+".qkv", dim, 3*dim, rng),
		Out:   NewLinear(name+".out", dim, dim, rng),
	}, nil
}

// AttnCache holds the intermediates attention saves for backward (or
// recomputes when the planner chose recomputation).
type AttnCache struct {
	QKV *tensor.Tensor // [b*s, 3d]
	// Probs[b][h] is the post-softmax causal attention matrix [s, s].
	Probs [][]*tensor.Tensor
	Ctx   *tensor.Tensor // [b*s, d] pre-projection context
}

// Forward runs attention over x [b*s, d] with the given batch and sequence
// lengths.
func (a *Attention) Forward(x *tensor.Tensor, batch, seq int) (*tensor.Tensor, *AttnCache, error) {
	n, d, err := x.Dims2()
	if err != nil || d != a.Dim || n != batch*seq {
		return nil, nil, fmt.Errorf("nn: %s: input %dx%d for batch %d seq %d dim %d", a.Name, n, d, batch, seq, a.Dim)
	}
	qkv, err := a.QKV.Forward(x)
	if err != nil {
		return nil, nil, err
	}
	cache, err := a.attend(qkv, batch, seq)
	if err != nil {
		return nil, nil, err
	}
	y, err := a.Out.Forward(cache.Ctx)
	if err != nil {
		return nil, nil, err
	}
	return y, cache, nil
}

// attend is attention between the two projections: from qkv [b*s, 3d], every
// head's causal probabilities and the context they weigh out of v, on the
// fp16 grid.
func (a *Attention) attend(qkv *tensor.Tensor, batch, seq int) (*AttnCache, error) {
	d := a.Dim
	dh := d / a.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	cache := &AttnCache{QKV: qkv, Probs: make([][]*tensor.Tensor, batch), Ctx: tensor.New(batch*seq, d)}
	for bi := 0; bi < batch; bi++ {
		cache.Probs[bi] = make([]*tensor.Tensor, a.Heads)
	}
	// Each (batch, head) task writes its own column window of Ctx and its own
	// Probs cell, so heads fan out across the worker pool with bit-identical
	// results at any thread count. A head's q, k and v are read where they lie
	// in qkv, and its context is written where it belongs in Ctx: nothing is
	// gathered and nothing is scattered. (Gathering k for the dot-product
	// kernel, whose b rows are then a whole [tokens, 3d] stride apart, was
	// measured and bought nothing: EXPERIMENTS.md, "Causal attention on
	// views".)
	err := a.forEachHead(batch, seq, func(bi, h int) error {
		q, k, v := headWindows(qkv, bi, h, seq, d, dh)
		// scores is the one per-head tensor that survives the task: it is
		// retained as Probs[bi][h], so it cannot come from scratch. Only its
		// causal half is ever computed; the other half is the +0 of its
		// allocation, which is what the masked cells' softmax comes to.
		scores := tensor.New(seq, seq)
		if err := tensor.MatMulTView(scores.View(), q, k, true); err != nil {
			return err
		}
		for i := 0; i < seq; i++ {
			row := scores.Data[i*seq : i*seq+i+1]
			simd.Scale(row, scale)
			tensor.SoftmaxRow(row)
			roundGridRow(row)
		}
		cache.Probs[bi][h] = scores
		return tensor.MatMulView(cache.Ctx.Window(bi*seq, seq, h*dh, dh), scores.View(), v, true)
	})
	if err != nil {
		return nil, err
	}
	roundGrid(cache.Ctx)
	return cache, nil
}

// headWindows returns head h of batch element bi as windows onto a
// [batch*seq, 3d] tensor laid out q | k | v: the head's queries, keys and
// values in forward, their gradients in backward.
func headWindows(t *tensor.Tensor, bi, h, seq, d, dh int) (q, k, v tensor.View) {
	return t.Window(bi*seq, seq, h*dh, dh), t.Window(bi*seq, seq, d+h*dh, dh), t.Window(bi*seq, seq, 2*d+h*dh, dh)
}

// Backward propagates dy through attention given the layer input x and the
// forward cache, returning dx.
func (a *Attention) Backward(x *tensor.Tensor, cache *AttnCache, dy *tensor.Tensor, batch, seq int) (*tensor.Tensor, error) {
	dctx, err := a.Out.Backward(cache.Ctx, dy)
	if err != nil {
		return nil, err
	}
	dqkv, err := a.attendBackward(cache, dctx, batch, seq)
	if err != nil {
		return nil, err
	}
	return a.QKV.Backward(x, dqkv)
}

// attendBackward is attend's backward: from the context gradient dctx
// [b*s, d], the gradient of qkv [b*s, 3d].
func (a *Attention) attendBackward(cache *AttnCache, dctx *tensor.Tensor, batch, seq int) (*tensor.Tensor, error) {
	d := a.Dim
	dh := d / a.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	dqkv := tensor.New(batch*seq, 3*d)
	ws := a.scratchFor(batch, seq)
	// Each (batch, head) task writes its own column windows of dqkv and its
	// own scratch entry; the parameter-gradient accumulations (the two
	// Linear.Backward calls around this) stay outside the parallel region.
	// Every [seq, seq] matrix here is lower-triangular by construction —
	// probs by the mask, dscores because its upper half is never written —
	// and every product says so, so none of them visits the other half.
	err := a.forEachHead(batch, seq, func(bi, h int) error {
		w := &ws[bi*a.Heads+h]
		q, k, v := headWindows(cache.QKV, bi, h, seq, d, dh)
		dq, dk, dv := headWindows(dqkv, bi, h, seq, d, dh)
		dout := dctx.Window(bi*seq, seq, h*dh, dh)
		probs := cache.Probs[bi][h]

		// dV = probsᵀ·dout, dprobs = dout·vᵀ.
		if err := tensor.TMatMulView(dv, probs.View(), dout, true); err != nil {
			return err
		}
		dprobs, dscores := w.dprobs.Data, w.dscores.Data
		if err := tensor.MatMulTView(w.dprobs.View(), dout, v, true); err != nil {
			return err
		}
		// Softmax backward per row: ds = (dp - Σ dp∘p) ∘ p, then the
		// 1/sqrt(dh) scale, over the causal prefix.
		for i := 0; i < seq; i++ {
			var dot float64
			for j := 0; j <= i; j++ {
				dot += float64(dprobs[i*seq+j]) * float64(probs.Data[i*seq+j])
			}
			for j := 0; j <= i; j++ {
				p := probs.Data[i*seq+j]
				dscores[i*seq+j] = (dprobs[i*seq+j] - float32(dot)) * p * scale
			}
		}
		// dQ = dscores·k, dK = dscoresᵀ·q.
		if err := tensor.MatMulView(dq, w.dscores.View(), k, true); err != nil {
			return err
		}
		return tensor.TMatMulView(dk, w.dscores.View(), q, true)
	})
	if err != nil {
		return nil, err
	}
	return dqkv, nil
}

// forEachHead runs fn for every (batch, head) pair, fanning tasks out
// across the worker pool when the per-head attention work is large enough
// to justify dispatch. Tasks must only write disjoint outputs; the first
// error (in task order) is returned.
func (a *Attention) forEachHead(batch, seq int, fn func(bi, h int) error) error {
	tasks := batch * a.Heads
	dh := a.Dim / a.Heads
	// Per head: two causal seq x seq x dh matmuls dominate, each half of the
	// square's 2*seq*seq*dh ops.
	work := int64(tasks) * 2 * int64(seq) * int64(seq) * int64(dh)
	if pool.InlineWork(work) {
		// Serial path: no error slice or dispatch closure; the first failing
		// task short-circuits the rest (their outputs are scratch).
		for t := 0; t < tasks; t++ {
			if err := fn(t/a.Heads, t%a.Heads); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, tasks)
	pool.Run(tasks, func(t int) {
		errs[t] = fn(t/a.Heads, t%a.Heads)
	})
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Params lists attention's parameters.
func (a *Attention) Params() []Param {
	return append(a.QKV.Params(), a.Out.Params()...)
}
