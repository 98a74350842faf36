package engine

import (
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/units"
)

// BenchmarkTrainStepOverlap isolates the full-duplex activation I/O
// pipeline's overlap win (BENCH_overlap.json): one optimizer step with
// every block's activations swapped through a bandwidth-throttled array,
// no overlap (the oracleSyncIO test hook: every transfer joined where it is
// submitted) vs write-behind/read-ahead at depth 1 and depth 3.
//
// The throttle keeps Table III's per-device shape — an Intel P5510 moves
// 6.5 GB/s reads against 3.8 GB/s writes, ratio 1.71 — scaled down 1/200:
// real Ratel blobs are hundreds of MiB while this model's are 256 KiB, so
// scaling bandwidth with the blobs restores a realistic compute-to-I/O
// ratio (the same scaling argument as the Fig. 10 mini benches). The model
// is shaped to make activation traffic dominate state traffic: attention
// probs grow with seq^2 while parameters grow with hidden^2, so a long
// sequence over a narrow model gives ~1.5 MiB of activations per direction
// per step against ~0.3 MiB of optimizer state. Serialized gradient mode
// keeps that optimizer traffic out of the forward/backward window, so the
// variants differ only in activation overlap — the thing under test.
const (
	overlapReadBW  = units.BytesPerSecond(33 << 20) // 6.5 GB/s / 200 per device
	overlapWriteBW = units.BytesPerSecond(19 << 20) // 3.8 GB/s / 200 per device
)

func overlapConfig(mut func(*Config)) Config {
	cfg := Config{
		Model:    nn.Config{Vocab: 64, Seq: 128, Hidden: 16, Heads: 2, Layers: 6, Batch: 2, Seed: 11},
		GradMode: agoffload.Serialized,
		Swap: map[int]Tier{
			0: SwapSSD, 1: SwapSSD, 2: SwapSSD, 3: SwapSSD, 4: SwapSSD, 5: SwapSSD,
		},
		Devices: 3,
		SSD: &nvme.Config{
			ReadBW:     overlapReadBW,
			WriteBW:    overlapWriteBW,
			StripeSize: 1 << 16,
		},
	}
	mut(&cfg)
	return cfg
}

func BenchmarkTrainStepOverlap(b *testing.B) {
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"sync", func(c *Config) { c.oracleSyncIO = true }},
		{"depth1", func(c *Config) { c.PipelineDepth = 1 }},
		{"depth3", func(c *Config) { c.PipelineDepth = 3 }},
	}
	var refLoss float64
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			e, err := New(overlapConfig(v.mut))
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			tokens, targets := data(e.cfg.Model, 9)
			var loss float64
			for i := 0; i < 2; i++ {
				if loss, err = e.TrainStep(tokens, targets); err != nil {
					b.Fatal(err)
				}
			}
			// All variants share one training trajectory; a drift here means
			// the pipeline changed values, which voids the comparison.
			if refLoss == 0 {
				refLoss = loss
			} else if loss != refLoss {
				b.Fatalf("%s warm-up loss %v != sync %v (pipeline changed values)", v.name, loss, refLoss)
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
			b.ReportMetric(float64(m.OffloadStalls), "stalls/step")
			b.ReportMetric(float64(m.OffloadStallWait.Microseconds()), "stall-µs/step")
		})
	}
}

// TestOverlapBenchValues pins the benchmark's comparability claim in the
// regular test suite: the three BenchmarkTrainStepOverlap variants follow
// bit-identical trajectories on the throttled array.
func TestOverlapBenchValues(t *testing.T) {
	if testing.Short() {
		t.Skip("throttled-array training in -short mode")
	}
	var ref []float64
	for _, v := range []struct {
		name string
		mut  func(*Config)
	}{
		{"sync", func(c *Config) { c.oracleSyncIO = true }},
		{"depth1", func(c *Config) { c.PipelineDepth = 1 }},
		{"depth3", func(c *Config) { c.PipelineDepth = 3 }},
	} {
		e, err := New(overlapConfig(v.mut))
		if err != nil {
			t.Fatal(err)
		}
		tokens, targets := data(e.cfg.Model, 9)
		var losses []float64
		for i := 0; i < 2; i++ {
			loss, err := e.TrainStep(tokens, targets)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = losses
			continue
		}
		for i := range ref {
			if ref[i] != losses[i] {
				t.Fatalf("%s loss[%d] = %v differs from sync %v", v.name, i, losses[i], ref[i])
			}
		}
	}
}
