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

	// arena is where attend's Ctx and Probs and attendBackward's dqkv and
	// per-head temporaries come from (Model.SetArena; nil is the heap), all
	// allocated before the heads fan out: an Arena serves one goroutine.
	arena *tensor.Arena
}

// clearAbove writes +0 above the diagonal of every seq×seq matrix stacked in
// d. Attention computes only the causal half of such a matrix and its products
// skip the other half as structural zeros (the tiles still read the few next
// to the diagonal), which arena memory is not: whoever allocates one clears it.
func clearAbove(d []float32, seq int) {
	for r := 0; r*seq < len(d); r++ {
		clear(d[r*seq+r%seq+1 : (r+1)*seq])
	}
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
	// Probs stacks the post-softmax causal attention matrices [s, s], head h
	// of batch element b at rows (b*heads+h)*s: [b*heads*s, s].
	Probs *tensor.Tensor
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

	cache := &AttnCache{QKV: qkv, Probs: a.arena.New(batch*a.Heads*seq, seq), Ctx: a.arena.New(batch*seq, d)}
	clearAbove(cache.Probs.Data, seq)
	// Each (batch, head) task writes its own column window of Ctx and its own
	// matrix of Probs, so heads fan out across the worker pool with bit-identical
	// results at any thread count. A head's q, k and v are read where they lie
	// in qkv, and its context is written where it belongs in Ctx: nothing is
	// gathered and nothing is scattered. (Gathering k for the dot-product
	// kernel, whose b rows are then a whole [tokens, 3d] stride apart, was
	// measured and bought nothing: EXPERIMENTS.md, "Causal attention on
	// views".)
	err := a.forEachHead(batch, seq, func(bi, h int) error {
		q, k, v := headWindows(qkv, bi, h, seq, d, dh)
		scores := cache.Probs.Window((bi*a.Heads+h)*seq, seq, 0, seq)
		if err := tensor.MatMulTView(scores, q, k, true); err != nil {
			return err
		}
		for i := 0; i < seq; i++ {
			row := scores.Data[i*seq : i*seq+i+1]
			simd.Scale(row, scale)
			tensor.SoftmaxRow(row)
			roundGridRow(row)
		}
		return tensor.MatMulView(cache.Ctx.Window(bi*seq, seq, h*dh, dh), scores, v, true)
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

	dqkv := a.arena.New(batch*seq, 3*d)
	// A task's two temporaries, stacked like Probs and written on and below
	// the diagonal only: dprobs' other half is never read, dscores' is skipped
	// by its products.
	dprobsAll, dscoresAll := a.arena.New(batch*a.Heads*seq, seq), a.arena.New(batch*a.Heads*seq, seq)
	clearAbove(dscoresAll.Data, seq)
	// Each (batch, head) task writes its own column windows of dqkv and its
	// own matrices of the two; the parameter-gradient accumulations (the two
	// Linear.Backward calls around this) stay outside the parallel region.
	// Every [seq, seq] matrix here is lower-triangular by construction —
	// probs by the mask, dscores because its upper half is never written —
	// and every product says so, so none of them visits the other half.
	err := a.forEachHead(batch, seq, func(bi, h int) error {
		r0 := (bi*a.Heads + h) * seq
		q, k, v := headWindows(cache.QKV, bi, h, seq, d, dh)
		dq, dk, dv := headWindows(dqkv, bi, h, seq, d, dh)
		dout := dctx.Window(bi*seq, seq, h*dh, dh)
		probs, dp, ds := cache.Probs.Window(r0, seq, 0, seq), dprobsAll.Window(r0, seq, 0, seq), dscoresAll.Window(r0, seq, 0, seq)

		// dV = probsᵀ·dout, dprobs = dout·vᵀ.
		if err := tensor.TMatMulView(dv, probs, dout, true); err != nil {
			return err
		}
		dprobs, dscores := dp.Data, ds.Data
		if err := tensor.MatMulTView(dp, dout, v, true); err != nil {
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
		if err := tensor.MatMulView(dq, ds, k, true); err != nil {
			return err
		}
		return tensor.TMatMulView(dk, ds, q, true)
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
