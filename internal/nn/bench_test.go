package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"ratel/internal/tensor"
	"ratel/internal/tensor/simd"
)

// BenchmarkAttention measures one attention layer's Forward + Backward at each
// BENCHMARK.json workload's geometry on one thread (run it with -cpu 1): the
// QKV and output projections are inside, as they are in a step, and the
// per-head products, softmax and their data movement are the rest. Each
// geometry runs on the selected kernels and, named ...@level, pinned to each
// other vector level the machine has.
func BenchmarkAttention(b *testing.B) {
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	tensor.SetParallelism(1)
	levels := []string{simd.Level()}
	for _, level := range simd.Levels()[1:] {
		if level != simd.Level() {
			levels = append(levels, level)
		}
	}
	for _, w := range []struct {
		name                      string
		batch, seq, hidden, heads int
	}{
		{"io_mixed", 2, 64, 32, 2},
		{"opt_stream", 2, 64, 64, 4},
		{"compute", 2, 128, 256, 8},
		{"accum_ckpt_file", 2, 64, 128, 4},
	} {
		for _, level := range levels {
			name := fmt.Sprintf("%s/b%d-s%d-h%d-heads%d", w.name, w.batch, w.seq, w.hidden, w.heads)
			if level != simd.Level() {
				name += "@" + level
			}
			b.Run(name, func(b *testing.B) { benchmarkAttention(b, level, w.batch, w.seq, w.hidden, w.heads) })
		}
	}
}

func benchmarkAttention(b *testing.B, level string, batch, seq, hidden, heads int) {
	defer simd.ForceLevel(level)()
	rng := rand.New(rand.NewSource(5))
	a, err := NewAttention("attn", hidden, heads, rng)
	if err != nil {
		b.Fatal(err)
	}
	x, dy := tensor.New(batch*seq, hidden), tensor.New(batch*seq, hidden)
	x.RandInit(rng, 1)
	x.RoundFP16InPlace()
	dy.RandInit(rng, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cache, err := a.Forward(x, batch, seq)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Backward(x, cache, dy, batch, seq); err != nil {
			b.Fatal(err)
		}
	}
}
