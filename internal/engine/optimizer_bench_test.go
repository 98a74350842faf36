package engine

import (
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/nvme"
)

// optimizerBenchConfig shapes a step whose cost is dominated by optimizer
// state streaming (BENCH_optimizer.json): a wide-ish model over a short
// sequence, everything recomputed so the only SSD traffic is the 26 B/param
// state round-trip, on a Table III-shaped throttled array (same 1/200
// scaling argument as BENCH_overlap.json). Every variant streams the state
// through the pipeline, whose read -> Adam -> write stages overlap each
// other; GradMode decides whether they also overlap backward.
func optimizerBenchConfig(mode agoffload.Mode) Config {
	cfg := Config{
		Model:    nn.Config{Vocab: 32, Seq: 64, Hidden: 64, Heads: 4, Layers: 4, Batch: 2, Seed: 21},
		GradMode: mode,
		Devices:  3,
		SSD: &nvme.Config{
			ReadBW:     overlapReadBW,
			WriteBW:    overlapWriteBW,
			StripeSize: 1 << 16,
		},
	}
	return cfg
}

// optimizerBenchVariants are the gradient schedules the optimizer benchmark
// times, all bit-identical: streaming (Optimized: each group's update is
// submitted at gradient arrival and overlaps backward), naive (submitted and
// waited for at arrival) and serialized (submitted after backward, the
// ZeRO-Offload order).
var optimizerBenchVariants = []struct {
	name string
	mode agoffload.Mode
}{
	{"streaming", agoffload.Optimized},
	{"naive", agoffload.Naive},
	{"serialized", agoffload.Serialized},
}

// BenchmarkTrainStepOptSchedule times the state-streaming-bound step under
// each gradient schedule.
func BenchmarkTrainStepOptSchedule(b *testing.B) {
	for _, v := range optimizerBenchVariants {
		b.Run(v.name, func(b *testing.B) {
			e, err := New(optimizerBenchConfig(v.mode))
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			tokens, targets := data(e.cfg.Model, 9)
			for i := 0; i < 3; i++ {
				if _, err := e.TrainStep(tokens, targets); err != nil {
					b.Fatal(err)
				}
			}
			// The timed loop starts and ends at a join (Stats): the state
			// write-back trails each step, and a loop that left its last
			// step's behind would time N steps but only N-1 write-backs.
			e.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.TrainStep(tokens, targets); err != nil {
					b.Fatal(err)
				}
			}
			e.Stats()
			b.StopTimer()
			m := e.LastStepMetrics()
			b.ReportMetric(float64(m.OptimizerDrain.Microseconds()), "drain-µs/step")
		})
	}
}

// TestOptimizerBenchValues pins the benchmark's comparability claim: on the
// throttled bench config, every variant follows the plain reference's
// trajectory bit-for-bit.
func TestOptimizerBenchValues(t *testing.T) {
	if testing.Short() {
		t.Skip("throttled-array training in -short mode")
	}
	cfg := optimizerBenchConfig(agoffload.Optimized)
	ref := newPlainRef(t, cfg)
	tokens, targets := data(cfg.Model, 9)
	var refLoss []float64
	for i := 0; i < 3; i++ {
		refLoss = append(refLoss, ref.step(Batch{Tokens: tokens, Targets: targets}))
	}
	for _, v := range optimizerBenchVariants {
		e := newEngine(t, optimizerBenchConfig(v.mode))
		var losses []float64
		for i := 0; i < 3; i++ {
			losses = append(losses, stepOn(t, e, []Batch{{Tokens: tokens, Targets: targets}}))
		}
		sameTrajectory(t, v.name, refLoss, losses, paramsSnapshot(ref.model), paramsSnapshot(e.Model()))
	}
}
