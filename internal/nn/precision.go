package nn

import (
	"ratel/internal/tensor"
	"ratel/internal/tensor/simd"
)

// fp16Grid controls whether forward tensors are rounded onto the fp16 grid
// (the engine's mixed-precision discipline, on by default). The numerical
// gradient checks disable it: finite differences need a locally smooth loss.
var fp16Grid = true

// SetFP16Grid toggles fp16-grid rounding and returns the previous setting.
// Intended for tests; production code leaves the grid on.
func SetFP16Grid(on bool) (previous bool) {
	previous = fp16Grid
	fp16Grid = on
	return previous
}

func roundGrid(t *tensor.Tensor) {
	if fp16Grid {
		t.RoundFP16InPlace()
	}
}

// roundGridRow is roundGrid for a slice of a tensor: attention rounds each
// causal prefix of its probabilities rather than the whole square.
func roundGridRow(row []float32) {
	if fp16Grid {
		simd.F16Round(row)
	}
}
