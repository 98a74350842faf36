package nn

import (
	"fmt"
	"math/rand"
	"slices"

	"ratel/internal/tensor"
)

// Block is one pre-norm transformer block:
// x -> ln1 -> attention -> +x -> ln2 -> mlp -> +res.
type Block struct {
	Name string
	LN1  *LayerNorm
	Attn *Attention
	LN2  *LayerNorm
	FC1  *Linear // [d, 4d]
	FC2  *Linear // [4d, d]
	// Drop, when active, applies counter-based dropout after the attention
	// projection (site) and the MLP output (site+1).
	Drop  *Dropout
	site  uint64
	batch int
	seq   int
	// step is where the tensors that outlive a pass come from — Forward's y,
	// Backward's dx — and scope where everything else it produces does, the
	// layers' results included (Model.SetArena; nil is the heap).
	step, scope *tensor.Arena
}

// NewBlock builds a block for fixed batch/sequence geometry.
func NewBlock(name string, dim, heads, batch, seq int, rng *rand.Rand) (*Block, error) {
	attn, err := NewAttention(name+".attn", dim, heads, rng)
	if err != nil {
		return nil, err
	}
	return &Block{
		Name:  name,
		LN1:   NewLayerNorm(name+".ln1", dim),
		Attn:  attn,
		LN2:   NewLayerNorm(name+".ln2", dim),
		FC1:   NewLinear(name+".fc1", dim, 4*dim, rng),
		FC2:   NewLinear(name+".fc2", 4*dim, dim, rng),
		batch: batch, seq: seq,
	}, nil
}

// BlockCache holds the intermediates the block saves for backward. The
// engine may discard it (keeping only the block input) and rebuild it via
// Recompute — bit-identically, since every tensor is on the fp16 grid and
// all kernels are deterministic.
type BlockCache struct {
	X       *tensor.Tensor // block input
	LN1Out  *tensor.Tensor
	Attn    *AttnCache
	AttnY   *tensor.Tensor // attention projection output
	Res1    *tensor.Tensor // x + attnY
	LN2Out  *tensor.Tensor
	FC1Out  *tensor.Tensor
	GeluOut *tensor.Tensor
	Y       *tensor.Tensor // block output; nil in a recomputed cache
}

// ActivationBytes is the fp16 footprint of the cache's saved tensors, the
// engine's A16 accounting for this block.
func (c *BlockCache) ActivationBytes() int64 {
	if c == nil {
		return 0
	}
	ts := []*tensor.Tensor{c.X, c.LN1Out, c.AttnY, c.Res1, c.LN2Out, c.FC1Out, c.GeluOut}
	if c.Attn != nil {
		ts = append(ts, c.Attn.QKV, c.Attn.Probs, c.Attn.Ctx)
	}
	n := int64(0)
	for _, t := range ts {
		if t != nil {
			n += 2 * int64(t.Numel())
		}
	}
	return n
}

// Forward runs the block and returns its output and cache.
func (b *Block) Forward(x *tensor.Tensor) (*tensor.Tensor, *BlockCache, error) {
	c, err := b.Recompute(x)
	if err != nil {
		return nil, nil, err
	}
	fc2, err := b.FC2.Forward(c.GeluOut)
	if err != nil {
		return nil, nil, err
	}
	b.Drop.Apply(fc2, b.site+1) // a no-op unless dropout is active
	c.Y = b.step.Clone(c.Res1)
	if err := tensor.AddInPlace(c.Y, fc2); err != nil {
		return nil, nil, err
	}
	roundGrid(c.Y)
	return c.Y, c, nil
}

// Recompute rebuilds the cache from the block input (activation
// recomputation, §II). It is Forward up to GeluOut, the last tensor Backward
// reads: the FC2 product, the MLP's dropout and the second residual produce
// only Y, which a recomputed cache leaves nil. Dropout is counter-based, so
// stopping before site+1 leaves no generator state behind.
func (b *Block) Recompute(x *tensor.Tensor) (*BlockCache, error) {
	c := &BlockCache{X: x}
	var err error
	if c.LN1Out, err = b.LN1.Forward(x); err != nil {
		return nil, err
	}
	if c.AttnY, c.Attn, err = b.Attn.Forward(c.LN1Out, b.batch, b.seq); err != nil {
		return nil, err
	}
	b.Drop.Apply(c.AttnY, b.site)
	c.Res1 = b.scope.Clone(x)
	if err := tensor.AddInPlace(c.Res1, c.AttnY); err != nil {
		return nil, err
	}
	roundGrid(c.Res1)
	if c.LN2Out, err = b.LN2.Forward(c.Res1); err != nil {
		return nil, err
	}
	if c.FC1Out, err = b.FC1.Forward(c.LN2Out); err != nil {
		return nil, err
	}
	c.GeluOut = tensor.GELU(b.scope, c.FC1Out)
	roundGrid(c.GeluOut)
	return c, nil
}

// Backward propagates dy through the block using the cache, accumulating
// parameter gradients and returning dx.
func (b *Block) Backward(c *BlockCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	if c == nil {
		return nil, fmt.Errorf("nn: %s: backward without cache", b.Name)
	}
	// Residual 2: y = res1 + drop(fc2(gelu(fc1(ln2(res1))))).
	dfc2 := dy
	if b.Drop.Active() {
		dfc2 = b.scope.Clone(dy)
		b.Drop.Backward(dfc2, b.site+1)
	}
	dgelu, err := b.FC2.Backward(c.GeluOut, dfc2)
	if err != nil {
		return nil, err
	}
	dfc1, err := tensor.GELUBackward(b.scope, c.FC1Out, dgelu)
	if err != nil {
		return nil, err
	}
	dln2, err := b.FC1.Backward(c.LN2Out, dfc1)
	if err != nil {
		return nil, err
	}
	dres1, err := b.LN2.Backward(c.Res1, dln2)
	if err != nil {
		return nil, err
	}
	if err := tensor.AddInPlace(dres1, dy); err != nil { // residual path
		return nil, err
	}
	// Residual 1: res1 = x + drop(attn(ln1(x))).
	dattnY := dres1
	if b.Drop.Active() {
		dattnY = b.scope.Clone(dres1)
		b.Drop.Backward(dattnY, b.site)
	}
	dln1, err := b.Attn.Backward(c.LN1Out, c.Attn, dattnY, b.batch, b.seq)
	if err != nil {
		return nil, err
	}
	dx := b.step.New(c.X.Shape...)
	if err := b.LN1.backwardInto(dx, c.X, dln1); err != nil {
		return nil, err
	}
	if err := tensor.AddInPlace(dx, dres1); err != nil { // residual path
		return nil, err
	}
	return dx, nil
}

// Params lists all block parameters in a stable order.
func (b *Block) Params() []Param {
	return slices.Concat(b.LN1.Params(), b.Attn.Params(), b.LN2.Params(), b.FC1.Params(), b.FC2.Params())
}
