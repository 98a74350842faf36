package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"ratel/internal/tensor"
)

// BenchmarkAttention measures one attention layer's Forward + Backward at each
// BENCHMARK.json workload's geometry on one thread (run it with -cpu 1): the
// QKV and output projections are inside, as they are in a step, and the
// per-head products, softmax and their data movement are the rest.
func BenchmarkAttention(b *testing.B) {
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	tensor.SetParallelism(1)
	for _, w := range []struct {
		name                      string
		batch, seq, hidden, heads int
	}{
		{"io_mixed", 2, 64, 32, 2},
		{"opt_stream", 2, 64, 64, 4},
		{"compute", 2, 128, 256, 8},
		{"accum_ckpt_file", 2, 64, 128, 4},
	} {
		b.Run(fmt.Sprintf("%s/b%d-s%d-h%d-heads%d", w.name, w.batch, w.seq, w.hidden, w.heads), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			a, err := NewAttention("attn", w.hidden, w.heads, rng)
			if err != nil {
				b.Fatal(err)
			}
			x, dy := tensor.New(w.batch*w.seq, w.hidden), tensor.New(w.batch*w.seq, w.hidden)
			x.RandInit(rng, 1)
			x.RoundFP16InPlace()
			dy.RandInit(rng, 0.01)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, cache, err := a.Forward(x, w.batch, w.seq)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Backward(x, cache, dy, w.batch, w.seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
