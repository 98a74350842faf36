package opt_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/engine"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/opt"
)

// sweepShape is one of the benchmark's four workloads as the stream-size
// sweep runs it: the engine configuration, the micro-batches a step takes,
// the steps a timed window holds, and whether the devices are files and the
// window ends with a checkpoint save.
type sweepShape struct {
	name  string
	cfg   engine.Config
	micro int
	steps int
	file  bool
}

// sweepShapes mirror the benchmark's workloads (bench/workloads.go).
func sweepShapes() []sweepShape {
	throttled := func(stripe int, latency time.Duration) *nvme.Config {
		return &nvme.Config{ReadBW: 33 << 20, WriteBW: 19 << 20, StripeSize: stripe, OpLatency: latency}
	}
	ssd := map[int]engine.Tier{}
	for i := 0; i < 6; i++ {
		ssd[i] = engine.SwapSSD
	}
	return []sweepShape{
		{"io_mixed", engine.Config{Model: nn.Config{Vocab: 64, Seq: 64, Hidden: 32, Heads: 2, Layers: 6, Batch: 2, Seed: 1},
			Swap: ssd, Devices: 3, SSD: throttled(16<<10, 80*time.Microsecond)}, 1, 12, false},
		{"opt_stream", engine.Config{Model: nn.Config{Vocab: 32, Seq: 64, Hidden: 64, Heads: 4, Layers: 4, Batch: 2, Seed: 1},
			Devices: 3, SSD: throttled(64<<10, 0)}, 1, 12, false},
		{"compute", engine.Config{Model: nn.Config{Vocab: 256, Seq: 128, Hidden: 256, Heads: 8, Layers: 4, Batch: 2, Seed: 1},
			Swap: map[int]engine.Tier{0: engine.SwapHost, 2: engine.SwapHost}, Devices: 4}, 1, 12, false},
		{"accum_ckpt_file", engine.Config{Model: nn.Config{Vocab: 128, Seq: 64, Hidden: 128, Heads: 4, Layers: 4, Batch: 2, Seed: 1},
			Swap: map[int]engine.Tier{0: engine.SwapSSD, 1: engine.SwapHost, 3: engine.SwapSSD}, Devices: 4,
			SSD: &nvme.Config{Checksums: true, StripeSize: 64 << 10}}, 2, 25, true},
	}
}

// sweepVariant is one split of the window: a stream of stream buffers (0:
// the rule's), the resident set first- or last-registered.
type sweepVariant struct {
	stream int
	last   bool
}

func (v sweepVariant) String() string {
	if v.last {
		return fmt.Sprintf("S=%d, resident = the last-registered pieces", v.stream)
	}
	return fmt.Sprintf("S=%d", v.stream)
}

// sweepRounds is how many rounds BenchmarkStateStreamSweep alternates its
// variants over; 0, the default, is the smoke `make bench-smoke` runs: one
// round of the rule and the control, two steps each.
var sweepRounds = flag.Int("sweep.rounds", 0, "rounds of the stream-size sweep (0: a smoke of the rule and the control)")

// BenchmarkStateStreamSweep is the stream-size sweep of EXPERIMENTS.md ("The
// state window is a cache"): on each of the benchmark's workload shapes it
// times every stream of S = 2 … B buffers, B the window's, the rest of the
// window resident, and the control — the rule's S with the resident set the
// last-registered pieces. The variants alternate round by round in one
// process, each round a fresh engine: warm-up steps, then a timed window of
// steps (and, for accum_ckpt_file, a checkpoint save). It logs each
// variant's median tokens/s over the rounds and the rule's S against the
// best. Run it as
//
//	go test ./internal/opt -run '^$' -bench StateStreamSweep -benchtime 1x -v -args -sweep.rounds 5
func BenchmarkStateStreamSweep(b *testing.B) {
	rounds, warm, smoke := *sweepRounds, 3, *sweepRounds == 0
	if smoke {
		rounds, warm = 1, 1
	}
	for _, sh := range sweepShapes() {
		if smoke {
			sh.steps = 2
		}
		b.Run(sh.name, func(b *testing.B) {
			for range b.N {
				rule, resident := ruleWindow(b, sh)
				variants := []sweepVariant{{stream: rule}}
				if !smoke {
					variants = variants[:0]
					for s := 2; s <= rule+resident; s++ {
						variants = append(variants, sweepVariant{stream: s})
					}
				}
				if resident > 0 {
					variants = append(variants, sweepVariant{stream: rule, last: true})
				}
				perSec := make([][]float64, len(variants))
				for r := range rounds {
					for k := range variants {
						if r%2 == 1 { // alternate the order, so drift favours no end of the sweep
							k = len(variants) - 1 - k
						}
						perSec[k] = append(perSec[k], sweepWindow(b, sh, variants[k], warm))
					}
				}
				best, ruleAt := 0.0, 0.0
				for k, v := range variants {
					slices.Sort(perSec[k])
					med := perSec[k][len(perSec[k])/2]
					if !v.last {
						best = max(best, med)
						if v.stream == rule {
							ruleAt = med
						}
					}
					b.Logf("%-44s %8.0f tokens/s (rounds %.0f … %.0f)", v, med, perSec[k][0], perSec[k][len(perSec[k])-1])
				}
				b.Logf("rule: S=%d of B=%d, %.1f %% of the best S", rule, rule+resident, 100*ruleAt/best)
			}
		})
	}
}

// ruleWindow is the split the rule gives the shape's state window at the
// engine's default depth: the stream's buffers and the resident ones.
func ruleWindow(b *testing.B, sh sweepShape) (stream, resident int) {
	m, err := nn.NewModel(sh.cfg.Model)
	if err != nil {
		b.Fatal(err)
	}
	groups := m.ParamGroups()
	o := opt.NewOutOfCoreAdam(opt.MemStore{}, opt.DefaultAdam(), "w")
	o.SetWindow(engine.DefaultPipelineDepth, groups)
	p := opt.NewStatePipeline(o, engine.DefaultPipelineDepth, groups)
	defer p.Close()
	stream, resident, _ = p.Window()
	return stream, resident
}

// newSweepEngine builds the shape's engine with the window split as v says.
func newSweepEngine(b *testing.B, sh sweepShape, v sweepVariant) *engine.Engine {
	b.Helper()
	defer opt.SetStreamSweep(v.stream, v.last)()
	cfg := sh.cfg
	cfg.GradMode = agoffload.Optimized
	if sh.file {
		cfg.Dir = b.TempDir()
	}
	e, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// sweepWindow runs one timed window of the shape under v on a fresh engine
// and returns its tokens/s.
func sweepWindow(b *testing.B, sh sweepShape, v sweepVariant, warm int) float64 {
	b.Helper()
	e := newSweepEngine(b, sh, v)
	defer func() {
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
	}()
	m := sh.cfg.Model
	rng := rand.New(rand.NewSource(1))
	micro := make([]engine.Batch, sh.micro)
	for i := range micro {
		micro[i] = engine.Batch{Tokens: make([][]int, m.Batch), Targets: make([][]int, m.Batch)}
		for r := range m.Batch {
			micro[i].Tokens[r], micro[i].Targets[r] = make([]int, m.Seq), make([]int, m.Seq)
			for s := range m.Seq {
				micro[i].Tokens[r][s], micro[i].Targets[r][s] = rng.Intn(m.Vocab), rng.Intn(m.Vocab)
			}
		}
	}
	step := func() {
		if _, err := e.TrainStepAccum(micro); err != nil {
			b.Fatal(err)
		}
	}
	for range warm {
		step()
	}
	e.Stats()
	start := time.Now()
	for range sh.steps {
		step()
	}
	if sh.file {
		if err := e.SaveCheckpoint(new(bytes.Buffer)); err != nil {
			b.Fatal(err)
		}
	}
	e.Stats() // the window's trailing write-back, the resident set's included
	return float64(sh.steps*sh.micro*m.Batch*m.Seq) / time.Since(start).Seconds()
}
