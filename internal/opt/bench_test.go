package opt

import (
	"fmt"
	"runtime"
	"testing"

	"ratel/internal/nn"
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

// BenchmarkAdamWire measures a piece update on stored state at each
// BENCHMARK.json workload's largest group (one block: 12h²+13h parameters,
// one piece), on one thread: the Adam stage in place on the stored object
// (applyTo: its tables checked, the fp16 gradients staged, the one walk that
// decodes, updates, encodes and installs P16, the seal) against the staged
// form (decode the three fp32 planes, AdamStep, encode, install).
func BenchmarkAdamWire(b *testing.B) {
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	tensor.SetParallelism(1)
	for _, w := range []struct {
		name   string
		hidden int
	}{{"io_mixed", 32}, {"opt_stream", 64}, {"compute", 256}, {"accum_ckpt_file", 128}} {
		n := 12*w.hidden*w.hidden + 13*w.hidden
		wt, gt := tensor.New(n), tensor.New(n)
		for i := range wt.Data {
			wt.Data[i] = float32(i%17) * 0.01
			gt.Data[i] = float32(i%13)*0.001 - 0.005
		}
		g := nn.ParamGroup{Name: "g", Params: []nn.Param{{Name: "g.w", W: wt, G: gt}}}
		store := MemStore{}
		o := NewOutOfCoreAdam(store, DefaultAdam(), "b")
		if err := o.InitGroup(g); err != nil {
			b.Fatal(err)
		}
		pc := o.cuts[g.Name][0]
		obj := append(make([]byte, 0, StateBytes(n, Full)), store[pc.key]...)
		mparams := func(b *testing.B) {
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mparams/s")
		}
		b.Run(fmt.Sprintf("%s/%d/adamWire", w.name, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if obj, err = o.applyTo(obj, g, pc, o.cfg, i+1, "g/opt-adam"); err != nil {
					b.Fatal(err)
				}
			}
			mparams(b)
		})
		wire := make([]byte, StateBytes(n, Full))
		p32, m, v := make([]float32, n), make([]float32, n), make([]float32, n)
		b.Run(fmt.Sprintf("%s/%d/staged", w.name, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := stagedAdamWire(wire, o.cfg, i+1, p32, m, v, gt.Data); err != nil {
					b.Fatal(err)
				}
				if err := tensor.RoundFP16Into(wt.Data, p32); err != nil {
					b.Fatal(err)
				}
			}
			mparams(b)
		})
	}
}
