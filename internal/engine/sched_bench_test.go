package engine

import (
	"testing"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/nvme"
)

// BenchmarkTrainStepSched isolates the transfer scheduler's win on a mixed
// activation+optimizer trace (BENCH_sched.json): the Table III per-device
// throttle shape of BenchmarkTrainStepOverlap, with the optimizer's state
// pipeline issuing state reads at gradient arrival — during backward they
// contend with the activation read-ahead, and the write-behind of the
// state contends with the activation spill. The fcfs rows are the test
// oracle (Config.oracleFCFS): each device serves that mix through one
// arrival-ordered queue, so a critical fetch queues behind whatever bulk
// writeback got there first; the production array's duplex lanes dispatch
// the directions independently (the P5510's 6.5/3.8 GB/s full-duplex
// shape), each in arrival order, and adjacent-stripe coalescing pays the
// per-op access latency once per run instead of once per stripe. The model
// is wider than the overlap bench (hidden 32) so optimizer-state traffic
// rivals activation traffic — the mix under test. The depth-1 pair pins the
// scheduler's effect on the overlap bench's depth-1 pathology. All variants
// share one bit-identical training trajectory (asserted at warm-up): the
// scheduler orders I/O, never data.
func schedBenchConfig(mut func(*Config)) Config {
	cfg := Config{
		Model:    nn.Config{Vocab: 64, Seq: 64, Hidden: 32, Heads: 2, Layers: 6, Batch: 2, Seed: 11},
		GradMode: agoffload.Optimized,
		Swap: map[int]Tier{
			0: SwapSSD, 1: SwapSSD, 2: SwapSSD, 3: SwapSSD, 4: SwapSSD, 5: SwapSSD,
		},
		Devices: 3,
		SSD: &nvme.Config{
			ReadBW:     overlapReadBW,
			WriteBW:    overlapWriteBW,
			StripeSize: 1 << 14,
			OpLatency:  80 * time.Microsecond,
		},
		PipelineDepth: 2,
	}
	mut(&cfg)
	return cfg
}

func BenchmarkTrainStepSched(b *testing.B) {
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"fcfs", func(c *Config) { c.oracleFCFS = true }},
		{"sched", func(c *Config) {}},
		{"fcfs-depth1", func(c *Config) { c.oracleFCFS = true; c.PipelineDepth = 1 }},
		{"sched-depth1", func(c *Config) { c.PipelineDepth = 1 }},
	}
	var refLoss float64
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			e, err := New(schedBenchConfig(v.mut))
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			tokens, targets := data(e.cfg.Model, 9)
			var loss float64
			for i := 0; i < 4; i++ {
				if loss, err = e.TrainStep(tokens, targets); err != nil {
					b.Fatal(err)
				}
			}
			// One trajectory across all variants: the scheduler reorders
			// I/O, never data, so any drift voids the comparison.
			if refLoss == 0 {
				refLoss = loss
			} else if loss != refLoss {
				b.Fatalf("%s warm-up loss %v != fcfs %v (scheduler changed values)", v.name, loss, refLoss)
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
			b.ReportMetric(float64(m.FetchStallWait.Microseconds()), "fetch-µs/step")
			b.ReportMetric(float64(m.EffectiveDepth), "depth")
		})
	}
}
