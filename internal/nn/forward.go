package nn

import (
	"fmt"

	"ratel/internal/tensor"
)

// ForwardBackward runs one full training pass: embed, blocks, head, loss,
// and the reverse sweep, accumulating gradients. Blocks whose index is in
// recompute have their caches discarded after forward and rebuilt from the
// saved block input during backward (activation recomputation, §II); the
// result is bit-identical either way.
//
// Gradients crossing block boundaries are rounded to the fp16 grid, the
// engine's G16 representation, so in-memory and offloaded training agree
// exactly.
func (m *Model) ForwardBackward(tokens, targets [][]int, recompute map[int]bool) (float64, error) {
	m.NextStep()
	x, err := m.Embed(tokens)
	if err != nil {
		return 0, err
	}
	inputs := make([]*tensor.Tensor, len(m.Blocks))
	caches := make([]*BlockCache, len(m.Blocks))
	h := x
	for i, b := range m.Blocks {
		inputs[i] = h
		y, c, err := b.Forward(h)
		if err != nil {
			return 0, err
		}
		if recompute[i] {
			caches[i] = nil // discarded; rebuilt during backward
		} else {
			caches[i] = c
		}
		h = y
	}
	lnOut, logits, err := m.HeadForward(h)
	if err != nil {
		return 0, err
	}
	loss, dlogits, err := m.CrossEntropy(logits, targets)
	if err != nil {
		return 0, err
	}
	dh, err := m.HeadBackward(h, lnOut, dlogits)
	if err != nil {
		return 0, err
	}
	roundGrid(dh)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		c := caches[i]
		if c == nil {
			if c, err = m.Blocks[i].Recompute(inputs[i]); err != nil {
				return 0, fmt.Errorf("nn: recompute block %d: %w", i, err)
			}
		}
		dx, err := m.Blocks[i].Backward(c, dh)
		if err != nil {
			return 0, err
		}
		roundGrid(dx)
		dh = dx
	}
	if err := m.EmbedBackward(tokens, dh); err != nil {
		return 0, err
	}
	return loss, nil
}
