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
// scaling argument as BENCH_overlap.json). The inline-sync oracle
// serializes each group's read->adam->write on the step goroutine at
// gradient arrival; the streaming pipeline overlaps the three stages with
// each other and with backward.
func optimizerBenchConfig(mut func(*Config)) Config {
	cfg := Config{
		Model:    nn.Config{Vocab: 32, Seq: 64, Hidden: 64, Heads: 4, Layers: 4, Batch: 2, Seed: 21},
		GradMode: agoffload.Optimized,
		Devices:  3,
		SSD: &nvme.Config{
			ReadBW:     overlapReadBW,
			WriteBW:    overlapWriteBW,
			StripeSize: 1 << 16,
		},
	}
	mut(&cfg)
	return cfg
}

// BenchmarkTrainStepOptSchedule compares the optimizer schedule with its
// oracle on the state-streaming-bound step: sync (the inline-sync test
// oracle, the baseline drain) and streaming (the production state pipeline,
// bit-identical to it).
func BenchmarkTrainStepOptSchedule(b *testing.B) {
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"sync", func(c *Config) { c.oracleInlineOpt = true }},
		{"streaming", func(c *Config) {}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			e, err := New(optimizerBenchConfig(v.mut))
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
// throttled bench config, the streaming variant follows the sync oracle's
// trajectory bit-for-bit.
func TestOptimizerBenchValues(t *testing.T) {
	if testing.Short() {
		t.Skip("throttled-array training in -short mode")
	}
	run := func(mut func(*Config)) []float64 {
		e, err := New(optimizerBenchConfig(mut))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		tokens, targets := data(e.cfg.Model, 9)
		var losses []float64
		for i := 0; i < 3; i++ {
			loss, err := e.TrainStep(tokens, targets)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
		}
		return losses
	}
	syncLoss := run(func(c *Config) { c.oracleInlineOpt = true })
	streamLoss := run(func(c *Config) {})
	for i := range syncLoss {
		if syncLoss[i] != streamLoss[i] {
			t.Fatalf("streaming loss[%d] = %v differs from sync %v", i, streamLoss[i], syncLoss[i])
		}
	}
}
