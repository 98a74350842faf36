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
	// errs holds each (batch, head) task's error of the fan-out in
	// progress, grown to the most tasks a call has had.
	errs []error
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
// lengths, saving into c what backward reads.
func (a *Attention) Forward(c *AttnCache, x *tensor.Tensor, batch, seq int) (*tensor.Tensor, error) {
	n, d, err := x.Dims2()
	if err != nil || d != a.Dim || n != batch*seq {
		return nil, fmt.Errorf("nn: %s: input %dx%d for batch %d seq %d dim %d", a.Name, n, d, batch, seq, a.Dim)
	}
	qkv, err := a.QKV.Forward(x)
	if err != nil {
		return nil, err
	}
	if err := a.attend(c, qkv, batch, seq); err != nil {
		return nil, err
	}
	return a.Out.Forward(c.Ctx)
}

// attend is attention between the two projections: from qkv [b*s, 3d], every
// head's causal probabilities and the context they weigh out of v, on the
// fp16 grid, into c.
func (a *Attention) attend(c *AttnCache, qkv *tensor.Tensor, batch, seq int) error {
	*c = AttnCache{QKV: qkv, Probs: a.arena.New(batch*a.Heads*seq, seq), Ctx: a.arena.New(batch*seq, a.Dim)}
	clearAbove(c.Probs.Data, seq)
	// Each (batch, head) task writes its own column window of Ctx and its own
	// matrix of Probs, so heads fan out across the worker pool with bit-identical
	// results at any thread count. A head's q, k and v are read where they lie
	// in qkv, and its context is written where it belongs in Ctx: nothing is
	// gathered and nothing is scattered. (Gathering k for the dot-product
	// kernel, whose b rows are then a whole [tokens, 3d] stride apart, was
	// measured and bought nothing: EXPERIMENTS.md, "Causal attention on
	// views".)
	if err := a.forEachHead(heads{a: a, seq: seq, c: c}, batch); err != nil {
		return err
	}
	roundGrid(c.Ctx)
	return nil
}

// forward is head h of batch element bi of attend.
func (op *heads) forward(bi, h int) error {
	a, seq, c := op.a, op.seq, op.c
	d := a.Dim
	dh := d / a.Heads
	q, k, v := headWindows(c.QKV, bi, h, seq, d, dh)
	scores := c.Probs.Window((bi*a.Heads+h)*seq, seq, 0, seq)
	if err := tensor.MatMulTView(scores, q, k, true); err != nil {
		return err
	}
	scale := float32(1 / math.Sqrt(float64(dh)))
	for i := 0; i < seq; i++ {
		row := scores.Data[i*seq : i*seq+i+1]
		simd.Scale(row, scale)
		tensor.SoftmaxRow(row)
		roundGridRow(row)
	}
	return tensor.MatMulView(c.Ctx.Window(bi*seq, seq, h*dh, dh), scores, v, true)
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
	// A task's two temporaries, stacked like Probs and written on and below
	// the diagonal only: dprobs' other half is never read, dscores' is skipped
	// by its products.
	rows := batch * a.Heads * seq
	op := heads{a: a, seq: seq, c: cache, dctx: dctx, dqkv: a.arena.New(batch*seq, 3*a.Dim), dprobs: a.arena.New(rows, seq), dscores: a.arena.New(rows, seq)}
	clearAbove(op.dscores.Data, seq)
	// Each (batch, head) task writes its own column windows of dqkv and its
	// own matrices of the two; the parameter-gradient accumulations (the two
	// Linear.Backward calls around this) stay outside the parallel region.
	if err := a.forEachHead(op, batch); err != nil {
		return nil, err
	}
	return op.dqkv, nil
}

// backward is head h of batch element bi of attendBackward. Every [seq, seq]
// matrix here is lower-triangular by construction — probs by the mask,
// dscores because its upper half is never written — and every product says
// so, so none of them visits the other half.
func (op *heads) backward(bi, h int) error {
	a, seq := op.a, op.seq
	d := a.Dim
	dh := d / a.Heads
	r0 := (bi*a.Heads + h) * seq
	q, k, v := headWindows(op.c.QKV, bi, h, seq, d, dh)
	dq, dk, dv := headWindows(op.dqkv, bi, h, seq, d, dh)
	dout := op.dctx.Window(bi*seq, seq, h*dh, dh)
	probs, dp, ds := op.c.Probs.Window(r0, seq, 0, seq), op.dprobs.Window(r0, seq, 0, seq), op.dscores.Window(r0, seq, 0, seq)

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
	scale := float32(1 / math.Sqrt(float64(dh)))
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
}

// heads is the operand of one fan-out over attention's (batch, head) tasks:
// attend's when dqkv is nil, attendBackward's otherwise.
type heads struct {
	a                           *Attention
	seq                         int
	c                           *AttnCache
	dctx, dqkv, dprobs, dscores *tensor.Tensor
}

// headSite runs heads tasks [lo,hi), each error in the Attention's errs.
var headSite = pool.NewSite(func(op heads, lo, hi int) {
	for t := lo; t < hi; t++ {
		bi, h := t/op.a.Heads, t%op.a.Heads
		if op.dqkv == nil {
			op.a.errs[t] = op.forward(bi, h)
		} else {
			op.a.errs[t] = op.backward(bi, h)
		}
	}
})

// forEachHead runs op's task for every (batch, head) pair, fanning them out
// across the worker pool when the per-head attention work is large enough to
// justify dispatch. Tasks must only write disjoint outputs; the first error
// (in task order) is returned.
func (a *Attention) forEachHead(op heads, batch int) error {
	tasks := batch * a.Heads
	if cap(a.errs) < tasks {
		a.errs = make([]error, tasks)
	}
	a.errs = a.errs[:tasks]
	dh := a.Dim / a.Heads
	// Per head: two causal seq x seq x dh matmuls dominate, each half of the
	// square's 2*seq*seq*dh ops.
	pool.Run(headSite, int64(tasks)*2*int64(op.seq)*int64(op.seq)*int64(dh), tasks, 1, op)
	for _, e := range a.errs {
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
