package engine

import (
	"fmt"

	"ratel/internal/nn"
	"ratel/internal/tensor"
)

// geometry fixes the tensor shapes of a block cache so it can be serialized
// without per-tensor headers.
type geometry struct {
	batch, seq, hidden, heads int
}

func geometryOf(cfg nn.Config) geometry {
	return geometry{batch: cfg.Batch, seq: cfg.Seq, hidden: cfg.Hidden, heads: cfg.Heads}
}

// appendCacheTensors appends a block cache's tensors in serialization order
// to ts, reusing its capacity — the engine's steady-state codec scratch.
// The block output Y is excluded: backward never reads it.
func appendCacheTensors(ts []*tensor.Tensor, c *nn.BlockCache) []*tensor.Tensor {
	ts = append(ts, c.LN1Out, c.Attn.QKV)
	for _, hs := range c.Attn.Probs {
		ts = append(ts, hs...)
	}
	return append(ts, c.Attn.Ctx, c.AttnY, c.Res1, c.LN2Out, c.FC1Out, c.GeluOut)
}

// cacheShapes mirrors appendCacheTensors for sizing.
func (g geometry) cacheShapes() [][]int {
	n := g.batch * g.seq
	shapes := [][]int{{n, g.hidden}, {n, 3 * g.hidden}}
	for i := 0; i < g.batch*g.heads; i++ {
		shapes = append(shapes, []int{g.seq, g.seq})
	}
	return append(shapes,
		[]int{n, g.hidden},     // ctx
		[]int{n, g.hidden},     // attnY
		[]int{n, g.hidden},     // res1
		[]int{n, g.hidden},     // ln2out
		[]int{n, 4 * g.hidden}, // fc1out
		[]int{n, 4 * g.hidden}, // geluout
	)
}

// blobBytes is the exact fp16 size of an encoded block cache — statically
// known from the geometry, which is what lets the engine preallocate every
// swap buffer once.
func (g geometry) blobBytes() int {
	n := 0
	for _, s := range g.cacheShapes() {
		n += tensor.Numel(s...)
	}
	return 2 * n
}

// newBlockCache allocates an empty block cache with every serialized tensor
// shaped per the geometry — the ring entries blobArena.decode revives. X and
// Y are left nil: X is installed per decode, Y is never serialized.
func newBlockCache(g geometry) *nn.BlockCache {
	n := g.batch * g.seq
	c := &nn.BlockCache{Attn: &nn.AttnCache{}}
	c.LN1Out = tensor.New(n, g.hidden)
	c.Attn.QKV = tensor.New(n, 3*g.hidden)
	c.Attn.Probs = make([][]*tensor.Tensor, g.batch)
	for bi := range c.Attn.Probs {
		c.Attn.Probs[bi] = make([]*tensor.Tensor, g.heads)
		for h := range c.Attn.Probs[bi] {
			c.Attn.Probs[bi][h] = tensor.New(g.seq, g.seq)
		}
	}
	c.Attn.Ctx = tensor.New(n, g.hidden)
	c.AttnY = tensor.New(n, g.hidden)
	c.Res1 = tensor.New(n, g.hidden)
	c.LN2Out = tensor.New(n, g.hidden)
	c.FC1Out = tensor.New(n, 4*g.hidden)
	c.GeluOut = tensor.New(n, 4*g.hidden)
	return c
}

// encodeTensors packs ts as binary16 into dst — the A16 bytes the engine
// offloads — which must hold exactly the tensors' combined encoded size.
// Every cache tensor is already on the fp16 grid, so the encoding is
// lossless; dst is fully overwritten, so dirty reused buffers encode the
// same bits as fresh ones.
func encodeTensors(dst []byte, ts []*tensor.Tensor) error {
	off := 0
	for _, t := range ts {
		end := off + 2*t.Numel()
		if end > len(dst) {
			return fmt.Errorf("engine: encode blob %d bytes, need more than %d", len(dst), off)
		}
		if err := tensor.ToFP16BytesInto(dst[off:end], t.Data); err != nil {
			return err
		}
		off = end
	}
	if off != len(dst) {
		return fmt.Errorf("engine: encode blob %d bytes, want %d", len(dst), off)
	}
	return nil
}

// decodeTensors unpacks fp16 blob bytes into ts, fully overwriting each
// tensor, so ring entries carry no state between blocks.
func decodeTensors(blob []byte, ts []*tensor.Tensor) error {
	off := 0
	for _, t := range ts {
		end := off + 2*t.Numel()
		if end > len(blob) {
			return fmt.Errorf("engine: activation blob truncated at %d of %d bytes", off, len(blob))
		}
		if err := tensor.FromFP16Bytes(blob[off:end], t.Data); err != nil {
			return err
		}
		off = end
	}
	if off != len(blob) {
		return fmt.Errorf("engine: activation blob has %d trailing bytes", len(blob)-off)
	}
	return nil
}
