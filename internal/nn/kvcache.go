package nn

import (
	"fmt"
	"math"

	"ratel/internal/tensor"
)

// KVCache holds per-block attention keys and values for incremental
// decoding: generating token t attends over the cached keys/values of
// tokens 0..t without recomputing them. Decoding through the cache is
// bit-identical to a full forward pass over the same prefix (all kernels
// compute per row in the same order).
type KVCache struct {
	k, v []*tensor.Tensor // per block: [maxSeq, hidden], first `length` rows valid
	len  int
	max  int
}

// NewKVCache allocates a cache for the model's context window.
func (m *Model) NewKVCache() *KVCache {
	c := &KVCache{max: m.Cfg.Seq}
	for range m.Blocks {
		c.k = append(c.k, tensor.New(m.Cfg.Seq, m.Cfg.Hidden))
		c.v = append(c.v, tensor.New(m.Cfg.Seq, m.Cfg.Hidden))
	}
	return c
}

// Len reports how many positions are cached.
func (c *KVCache) Len() int { return c.len }

// DecodeStep feeds one token at the next position and returns its
// next-token logits, updating the cache. Dropout is disabled (inference).
func (m *Model) DecodeStep(cache *KVCache, token int) ([]float32, error) {
	cfg := m.Cfg
	pos := cache.len
	if pos >= cache.max {
		return nil, fmt.Errorf("nn: kv cache full (%d positions)", cache.max)
	}
	if token < 0 || token >= cfg.Vocab {
		return nil, fmt.Errorf("nn: token %d out of vocabulary", token)
	}
	restore := m.disableDropout()
	defer restore()

	x := tensor.New(1, cfg.Hidden)
	for j := 0; j < cfg.Hidden; j++ {
		x.Data[j] = m.TokEmb.Data[token*cfg.Hidden+j] + m.PosEmb.Data[pos*cfg.Hidden+j]
	}
	roundGrid(x)

	h := x
	for bi, b := range m.Blocks {
		y, err := b.decodeStep(h, cache.k[bi], cache.v[bi], pos)
		if err != nil {
			return nil, err
		}
		h = y
	}
	cache.len++

	_, logits, err := m.HeadForward(h)
	if err != nil {
		return nil, err
	}
	out := make([]float32, cfg.Vocab)
	copy(out, logits.Data[:cfg.Vocab])
	return out, nil
}

// decodeStep runs one block on a single token row [1, d], reading and
// extending the block's key/value cache at position pos.
func (b *Block) decodeStep(x, kCache, vCache *tensor.Tensor, pos int) (*tensor.Tensor, error) {
	d := b.Attn.Dim
	heads := b.Attn.Heads
	dh := d / heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	ln1, err := b.LN1.Forward(x)
	if err != nil {
		return nil, err
	}
	qkv, err := b.Attn.QKV.Forward(ln1) // [1, 3d]
	if err != nil {
		return nil, err
	}
	copy(kCache.Data[pos*d:(pos+1)*d], qkv.Data[d:2*d])
	copy(vCache.Data[pos*d:(pos+1)*d], qkv.Data[2*d:3*d])

	ctx := tensor.New(1, d)
	scores := make([]float32, pos+1)
	for h := 0; h < heads; h++ {
		q := qkv.Data[h*dh : (h+1)*dh]
		// scores_j = q . k_j / sqrt(dh) over the causal prefix.
		for j := 0; j <= pos; j++ {
			kRow := kCache.Data[j*d+h*dh : j*d+(h+1)*dh]
			var s float32
			for t := 0; t < dh; t++ {
				s += q[t] * kRow[t]
			}
			scores[j] = s * scale
		}
		tensor.SoftmaxRow(scores[:pos+1])
		for j := 0; j <= pos; j++ {
			scores[j] = tensor.RoundFP16(scores[j])
		}
		out := ctx.Data[h*dh : (h+1)*dh]
		for j := 0; j <= pos; j++ {
			p := scores[j]
			if p == 0 {
				continue
			}
			vRow := vCache.Data[j*d+h*dh : j*d+(h+1)*dh]
			for t := 0; t < dh; t++ {
				out[t] += p * vRow[t]
			}
		}
	}
	roundGrid(ctx)
	attnY, err := b.Attn.Out.Forward(ctx)
	if err != nil {
		return nil, err
	}
	res1 := x.Clone()
	if err := tensor.AddInPlace(res1, attnY); err != nil {
		return nil, err
	}
	roundGrid(res1)
	ln2, err := b.LN2.Forward(res1)
	if err != nil {
		return nil, err
	}
	fc1, err := b.FC1.Forward(ln2)
	if err != nil {
		return nil, err
	}
	gelu := tensor.GELU(nil, fc1)
	roundGrid(gelu)
	fc2, err := b.FC2.Forward(gelu)
	if err != nil {
		return nil, err
	}
	y := res1.Clone()
	if err := tensor.AddInPlace(y, fc2); err != nil {
		return nil, err
	}
	roundGrid(y)
	return y, nil
}

// GenerateCached continues a prompt greedily using the KV cache — O(n) per
// token instead of O(n²). Results equal Generate for prompts within the
// context window.
func (m *Model) GenerateCached(prompt []int, steps int) ([]int, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("nn: empty prompt")
	}
	if len(prompt)+steps > m.Cfg.Seq {
		return nil, fmt.Errorf("nn: prompt %d + steps %d exceed context %d (use Generate for sliding-window decoding)",
			len(prompt), steps, m.Cfg.Seq)
	}
	cache := m.NewKVCache()
	var logits []float32
	var err error
	for _, tok := range prompt {
		if logits, err = m.DecodeStep(cache, tok); err != nil {
			return nil, err
		}
	}
	out := append([]int(nil), prompt...)
	for i := 0; i < steps; i++ {
		best := 0
		for j, v := range logits {
			if v > logits[best] {
				best = j
			}
		}
		out = append(out, best)
		if i == steps-1 {
			break
		}
		if logits, err = m.DecodeStep(cache, best); err != nil {
			return nil, err
		}
	}
	return out, nil
}
