package opt

import "math"

// Schedule maps a 1-based optimizer step to a learning rate.
type Schedule func(step int) float64

// ConstantLR returns lr for every step.
func ConstantLR(lr float64) Schedule {
	return func(int) float64 { return lr }
}

// WarmupCosine linearly warms up to base over warmup steps, then decays to
// floor along a cosine over the remaining total-warmup steps — the schedule
// conventionally used for LLM fine-tuning.
func WarmupCosine(base float64, warmup, total int, floor float64) Schedule {
	if warmup < 0 {
		warmup = 0
	}
	if total <= warmup {
		total = warmup + 1
	}
	return func(step int) float64 {
		if step <= warmup {
			return base * float64(step) / float64(max(warmup, 1))
		}
		if step >= total {
			return floor
		}
		progress := float64(step-warmup) / float64(total-warmup)
		return floor + (base-floor)*0.5*(1+math.Cos(math.Pi*progress))
	}
}

// SetLR changes the optimizer's learning rate; the engine drives it from a
// Schedule at the start of each step.
func (o *OutOfCoreAdam) SetLR(lr float64) { o.cfg.LR = lr }

// LR reports the current learning rate.
func (o *OutOfCoreAdam) LR() float64 { return o.cfg.LR }
