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

// cacheTensors lists a block cache's tensors in serialization order. The
// block input X travels by reference and the output Y not at all: backward
// never reads it.
func cacheTensors(c *nn.BlockCache) [9]*tensor.Tensor {
	return [...]*tensor.Tensor{c.LN1Out, c.Attn.QKV, c.Attn.Probs, c.Attn.Ctx, c.AttnY, c.Res1, c.LN2Out, c.FC1Out, c.GeluOut}
}

// blobBytes is the exact fp16 size of an encoded block cache — statically
// known from the geometry, which is what lets the engine preallocate every
// swap buffer once: the 16 hidden-widths a token's serialized tensors add up
// to (QKV 3, FC1Out and GeluOut 4 each, the other five 1 each) and every
// head's seq×seq probabilities.
func (g geometry) blobBytes() int {
	return 2 * (g.batch*g.seq*16*g.hidden + g.batch*g.heads*g.seq*g.seq)
}

// shapeCache points every serialized tensor of c at a fresh tensor of its
// geometry-fixed shape from a (nil: the heap), in serialization order — what
// blobArena.decode revives into, every element overwritten. X and Y are left
// alone: X is installed per decode, Y is never serialized.
func (g geometry) shapeCache(c *nn.BlockCache, a *tensor.Arena) {
	n := g.batch * g.seq
	if c.Attn == nil {
		c.Attn = new(nn.AttnCache)
	}
	c.LN1Out = a.New(n, g.hidden)
	c.Attn.QKV = a.New(n, 3*g.hidden)
	c.Attn.Probs = a.New(g.batch*g.heads*g.seq, g.seq)
	c.Attn.Ctx = a.New(n, g.hidden)
	c.AttnY = a.New(n, g.hidden)
	c.Res1 = a.New(n, g.hidden)
	c.LN2Out = a.New(n, g.hidden)
	c.FC1Out = a.New(n, 4*g.hidden)
	c.GeluOut = a.New(n, 4*g.hidden)
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
// tensor, so the dirty memory they were handed carries into no value.
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
