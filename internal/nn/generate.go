package nn

import (
	"fmt"

	"ratel/internal/tensor"
)

// ForwardWith runs the block on arbitrary (batch, seq) geometry — used by
// inference, where sequences grow token by token.
func (b *Block) ForwardWith(x *tensor.Tensor, batch, seq int) (*tensor.Tensor, *BlockCache, error) {
	savedB, savedS := b.batch, b.seq
	b.batch, b.seq = batch, seq
	defer func() { b.batch, b.seq = savedB, savedS }()
	return b.Forward(x)
}

// Logits runs the model on a single sequence and returns the logits at its
// last position — the next-token distribution. Dropout is disabled
// (inference mode).
func (m *Model) Logits(tokens []int) ([]float32, error) {
	cfg := m.Cfg
	seq := len(tokens)
	if seq < 1 || seq > cfg.Seq {
		return nil, fmt.Errorf("nn: sequence length %d outside [1, %d]", seq, cfg.Seq)
	}
	restore := m.disableDropout()
	defer restore()

	x := tensor.New(seq, cfg.Hidden)
	for s, tok := range tokens {
		if tok < 0 || tok >= cfg.Vocab {
			return nil, fmt.Errorf("nn: token %d out of vocabulary", tok)
		}
		dst := x.Data[s*cfg.Hidden : (s+1)*cfg.Hidden]
		for j := 0; j < cfg.Hidden; j++ {
			dst[j] = m.TokEmb.Data[tok*cfg.Hidden+j] + m.PosEmb.Data[s*cfg.Hidden+j]
		}
	}
	roundGrid(x)
	h := x
	for _, b := range m.Blocks {
		y, _, err := b.ForwardWith(h, 1, seq)
		if err != nil {
			return nil, err
		}
		h = y
	}
	_, logits, err := m.HeadForward(h)
	if err != nil {
		return nil, err
	}
	last := make([]float32, cfg.Vocab)
	copy(last, logits.Data[(seq-1)*cfg.Vocab:seq*cfg.Vocab])
	return last, nil
}

// Generate continues a prompt greedily for steps tokens, truncating the
// attention context to the model's maximum sequence length.
func (m *Model) Generate(prompt []int, steps int) ([]int, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("nn: empty prompt")
	}
	out := append([]int(nil), prompt...)
	for i := 0; i < steps; i++ {
		ctx := out
		if len(ctx) > m.Cfg.Seq {
			ctx = ctx[len(ctx)-m.Cfg.Seq:]
		}
		logits, err := m.Logits(ctx)
		if err != nil {
			return nil, err
		}
		best := 0
		for j, v := range logits {
			if v > logits[best] {
				best = j
			}
			_ = v
		}
		out = append(out, best)
	}
	return out, nil
}

// disableDropout zeroes the drop probability and returns a restorer.
func (m *Model) disableDropout() func() {
	if m.drop == nil {
		return func() {}
	}
	saved := m.drop.P
	m.drop.P = 0
	return func() { m.drop.P = saved }
}

// EvalLoss computes the mean next-token loss of a batch in inference mode:
// no gradients, no dropout, no state changes.
func (m *Model) EvalLoss(tokens, targets [][]int) (float64, error) {
	restore := m.disableDropout()
	defer restore()
	x, err := m.Embed(tokens)
	if err != nil {
		return 0, err
	}
	h := x
	for _, b := range m.Blocks {
		y, _, err := b.Forward(h)
		if err != nil {
			return 0, err
		}
		h = y
	}
	_, logits, err := m.HeadForward(h)
	if err != nil {
		return 0, err
	}
	loss, _, err := m.CrossEntropy(logits, targets)
	return loss, err
}
