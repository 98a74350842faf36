package opt

import (
	"fmt"
	"runtime"
	"testing"

	"ratel/internal/tensor"
)

// BenchmarkAdamStep_1M measures the chunked CPU Adam kernel over one
// million parameters, pinned to one thread and on the full worker pool —
// the engine-side number behind the simulator's AdamParamsPerSec.
func BenchmarkAdamStep_1M(b *testing.B) {
	const n = 1 << 20
	p32 := make([]float32, n)
	m := make([]float32, n)
	v := make([]float32, n)
	grad := make([]float32, n)
	for i := range p32 {
		p32[i] = float32(i%17) * 0.01
		grad[i] = float32(i%13)*0.001 - 0.005
	}
	cfg := DefaultAdam()

	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)

	for _, threads := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("%dthreads", threads), func(b *testing.B) {
			tensor.SetParallelism(threads)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := AdamStep(cfg, i+1, p32, m, v, grad); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mparams/s")
		})
	}
}

// BenchmarkAdamWire measures a group update on state in wire form at each
// BENCHMARK.json workload's largest group (one block: 12h²+13h parameters),
// on one thread: the single walk over the P32|M|V object (adamWire) against
// the staged form it replaced (decode, AdamStep, encode).
func BenchmarkAdamWire(b *testing.B) {
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	tensor.SetParallelism(1)
	for _, w := range []struct {
		name   string
		hidden int
	}{{"io_mixed", 32}, {"opt_stream", 64}, {"compute", 256}, {"accum_ckpt_file", 128}} {
		n := 12*w.hidden*w.hidden + 13*w.hidden
		p32, m, v, grad := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range p32 {
			p32[i] = float32(i%17) * 0.01
			grad[i] = float32(i%13)*0.001 - 0.005
		}
		wire := make([]byte, wireBytes(n))
		if err := tensor.ToFP32BytesInto(wire[:4*n], p32); err != nil { // moments start at zero
			b.Fatal(err)
		}
		o := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "b")
		mparams := func(b *testing.B) {
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mparams/s")
		}
		b.Run(fmt.Sprintf("%s/%d/adamWire", w.name, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := o.adamWire(wire, o.cfg, i+1, grad, "g", "g/opt-adam"); err != nil {
					b.Fatal(err)
				}
			}
			mparams(b)
		})
		b.Run(fmt.Sprintf("%s/%d/staged", w.name, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := stagedAdamWire(wire, o.cfg, i+1, p32, m, v, grad); err != nil {
					b.Fatal(err)
				}
			}
			mparams(b)
		})
	}
}
