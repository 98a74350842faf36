// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), one benchmark per artifact, plus micro-benchmarks of the real
// substrates. Key quantities are attached as benchmark metrics so
// `go test -bench=.` output doubles as the reproduction record
// (EXPERIMENTS.md).
package ratel_test

import (
	"fmt"
	"io"
	"testing"

	"ratel"
	"ratel/internal/agoffload"
	"ratel/internal/engine"
	"ratel/internal/experiments"
	"ratel/internal/hw"
	"ratel/internal/itersim"
	"ratel/internal/model"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/strategy"
	"ratel/internal/units"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func evalSrv() hw.Server { return hw.EvalServer(hw.RTX4090, 768*units.GiB, 12) }

func simMetric(b *testing.B, p strategy.Policy, modelName string, batch int, srv hw.Server) itersim.Report {
	b.Helper()
	var rep itersim.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = itersim.Simulate(p, model.MustByName(modelName), batch, srv)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// --- Figure 1: stage breakdowns ---

func BenchmarkFig1Breakdown(b *testing.B) { runExperiment(b, "fig1") }

func BenchmarkFig1RatelIteration(b *testing.B) {
	rep := simMetric(b, strategy.Ratel, "13B", 32, evalSrv())
	b.ReportMetric(float64(rep.Makespan), "iter-s")
	b.ReportMetric(100*rep.GPUBusyFrac, "gpu-busy-%")
	b.ReportMetric(float64(rep.OptimizerTail), "opt-tail-s")
}

func BenchmarkFig1ZeROInfinityIteration(b *testing.B) {
	rep := simMetric(b, strategy.ZeROInfinity, "13B", 32, evalSrv())
	b.ReportMetric(float64(rep.Makespan), "iter-s")
	b.ReportMetric(100*rep.GPUBusyFrac, "gpu-busy-%")
	b.ReportMetric(float64(rep.OptimizerTail), "opt-tail-s")
}

// --- Figure 2: motivation ---

func BenchmarkFig2aMaxModelSize(b *testing.B)   { runExperiment(b, "fig2a") }
func BenchmarkFig2bGPUBusy(b *testing.B)        { runExperiment(b, "fig2b") }
func BenchmarkFig2cOptimizerShare(b *testing.B) { runExperiment(b, "fig2c") }

// --- Figure 5: end-to-end throughput ---

func BenchmarkFig5aThroughput4090(b *testing.B) {
	runExperiment(b, "fig5a")
	rep, err := itersim.Simulate(strategy.Ratel, model.MustByName("13B"), 32, evalSrv())
	if err != nil {
		b.Fatal(err)
	}
	zo, err := itersim.Simulate(strategy.ZeROOffload, model.MustByName("13B"), 32, evalSrv())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.TokensPerSec, "ratel-tok/s")
	b.ReportMetric(rep.TokensPerSec/zo.TokensPerSec, "speedup-vs-zero-offload")
}

func BenchmarkFig5bThroughput3090(b *testing.B) { runExperiment(b, "fig5b") }

func BenchmarkFig5cTFLOPS(b *testing.B) {
	runExperiment(b, "fig5c")
	rep, err := itersim.BestThroughput(strategy.Ratel, model.MustByName("70B"), evalSrv(),
		[]int{1, 2, 4, 8, 16, 32, 64, 128})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.TFLOPS, "ratel-70B-TFLOPS")
	b.ReportMetric(100*rep.TFLOPS/hw.RTX4090.PeakFP16.TFLOPSf(), "pct-of-peak")
}

// --- Figure 6: maximum trainable model size ---

func BenchmarkFig6MaxModelSize(b *testing.B) { runExperiment(b, "fig6") }

// --- Figure 7: active gradient offloading ablation ---

func BenchmarkFig7ActiveGradOffload(b *testing.B) {
	runExperiment(b, "fig7")
	opt := simMetricOnce(b, strategy.Ratel, "13B", 64)
	ser := simMetricOnce(b, strategy.RatelZeRO, "13B", 64)
	b.ReportMetric(opt.TokensPerSec/ser.TokensPerSec, "optimized-vs-serialized")
}

func simMetricOnce(b *testing.B, p strategy.Policy, modelName string, batch int) itersim.Report {
	b.Helper()
	rep, err := itersim.Simulate(p, model.MustByName(modelName), batch, evalSrv())
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// --- Figure 8: activations to SSD ---

func BenchmarkFig8ActivationsToSSD(b *testing.B) { runExperiment(b, "fig8") }

// --- Figure 9 + Table V: activation management ---

func BenchmarkFig9aActMgmt(b *testing.B)        { runExperiment(b, "fig9a") }
func BenchmarkTableVBatchSizes(b *testing.B)    { runExperiment(b, "tableV") }
func BenchmarkFig9bIterTimeVsSwap(b *testing.B) { runExperiment(b, "fig9b") }

// --- Figure 10: SSD scaling ---

func BenchmarkFig10aSSDScaling(b *testing.B) { runExperiment(b, "fig10a") }

func BenchmarkFig10bSSDScaling13B(b *testing.B) {
	runExperiment(b, "fig10b")
	rep, err := itersim.Simulate(strategy.Ratel, model.MustByName("13B"), 32, evalSrv())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.TFLOPS, "b32-12ssd-TFLOPS")
}

// --- Figure 11: multi-GPU ---

func BenchmarkFig11MultiGPU(b *testing.B) { runExperiment(b, "fig11") }

// --- Figure 12 + Table VI: diffusion models ---

func BenchmarkFig12Diffusion(b *testing.B) { runExperiment(b, "fig12") }

// --- Figure 13 + Table VII: cost-effectiveness ---

func BenchmarkFig13CostEffectiveness(b *testing.B) { runExperiment(b, "fig13") }

// --- Substrate micro-benchmarks ---

// BenchmarkEngineTrainStep measures the real engine's step time per
// gradient-offloading mode (wall-clock at mini scale; the relative overlap
// effect mirrors Fig. 7's schedule comparison).
func BenchmarkEngineTrainStep(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    agoffload.Mode
	}{{"serialized", agoffload.Serialized}, {"naive", agoffload.Naive}, {"optimized", agoffload.Optimized}} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := engine.New(engine.Config{
				Model:    nn.Config{Vocab: 32, Seq: 16, Hidden: 32, Heads: 4, Layers: 4, Batch: 4, Seed: 1},
				GradMode: mode.m,
				Devices:  4,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			tokens := make([][]int, 4)
			targets := make([][]int, 4)
			for i := range tokens {
				tokens[i] = make([]int, 16)
				targets[i] = make([]int, 16)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.TrainStep(tokens, targets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineOffloadedStep measures a step with all activations swapped
// through the NVMe substrate.
func BenchmarkEngineOffloadedStep(b *testing.B) {
	e, err := engine.New(engine.Config{
		Model:    nn.Config{Vocab: 32, Seq: 16, Hidden: 32, Heads: 4, Layers: 4, Batch: 4, Seed: 1},
		GradMode: agoffload.Optimized,
		Swap:     map[int]engine.Tier{0: engine.SwapSSD, 1: engine.SwapSSD, 2: engine.SwapSSD, 3: engine.SwapSSD},
		Devices:  4,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	tokens := make([][]int, 4)
	targets := make([][]int, 4)
	for i := range tokens {
		tokens[i] = make([]int, 16)
		targets[i] = make([]int, 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.TrainStep(tokens, targets); err != nil {
			b.Fatal(err)
		}
	}
	st := e.Stats()
	b.ReportMetric(float64(st.ActBytesOffload)/float64(b.N), "act-bytes/step")
}

// BenchmarkNVMeArray measures the striped store's in-memory throughput at 1
// and 4 devices.
func BenchmarkNVMeArray(b *testing.B) {
	for _, devs := range []int{1, 4} {
		b.Run(map[int]string{1: "1-device", 4: "4-devices"}[devs], func(b *testing.B) {
			a, err := nvme.Open(nvme.Config{Devices: devs})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			payload := make([]byte, 4<<20)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Put("k", payload); err != nil {
					b.Fatal(err)
				}
				if err := a.ReadInto("k", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlannerOptimize measures Algorithm 1 on the largest catalog
// model (planning cost is paid once per fine-tuning job, §IV-B).
func BenchmarkPlannerOptimize(b *testing.B) {
	srv := evalSrv()
	for i := 0; i < b.N; i++ {
		if _, err := ratel.PlanFor("412B", 8, srv); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md design-choice sensitivity) ---

// BenchmarkAblationCPUAdamRate varies the CPU optimizer throughput: active
// gradient offloading hides the optimizer as long as the CPU keeps up with
// backward propagation.
func BenchmarkAblationCPUAdamRate(b *testing.B) {
	for _, scale := range []float64{0.25, 0.5, 1, 2} {
		b.Run(fmt.Sprintf("rate-x%.2g", scale), func(b *testing.B) {
			srv := evalSrv()
			srv.CPU.AdamParamsPerSec *= scale
			rep := simMetric(b, strategy.Ratel, "13B", 32, srv)
			b.ReportMetric(rep.TokensPerSec, "tok/s")
			b.ReportMetric(float64(rep.OptimizerTail), "opt-tail-s")
		})
	}
}

// BenchmarkAblationLinkBandwidth varies the GPU PCIe bandwidth: the planner
// re-balances swap vs recompute, so throughput degrades gracefully.
func BenchmarkAblationLinkBandwidth(b *testing.B) {
	for _, gbps := range []float64{8, 14, 21, 32} {
		b.Run(fmt.Sprintf("link-%.0fGBps", gbps), func(b *testing.B) {
			srv := evalSrv()
			srv.Link.GPUPerDirection = units.GBps(gbps)
			rep := simMetric(b, strategy.Ratel, "13B", 32, srv)
			b.ReportMetric(rep.TokensPerSec, "tok/s")
			b.ReportMetric(rep.AG2M.GiBf(), "swapped-GiB")
		})
	}
}

// BenchmarkAblationProfilingOverhead measures the §IV-B claim: the
// profiling iteration costs 2-3x a steady one.
func BenchmarkAblationProfilingOverhead(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		prof, err := itersim.SimulateProfiling(model.MustByName("13B"), 32, evalSrv())
		if err != nil {
			b.Fatal(err)
		}
		steady, err := itersim.Simulate(strategy.Ratel, model.MustByName("13B"), 32, evalSrv())
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(prof.Makespan) / float64(steady.Makespan)
	}
	b.ReportMetric(ratio, "profiling-vs-steady")
}

// BenchmarkAblationHostStaging varies Ratel's pinned host staging budget:
// less main memory pushes more activations to the SSD tier (Eq. 3).
func BenchmarkAblationHostStaging(b *testing.B) {
	for _, memGiB := range []int{32, 64, 128, 768} {
		b.Run(fmt.Sprintf("mem-%dGiB", memGiB), func(b *testing.B) {
			srv := hw.EvalServer(hw.RTX4090, units.Bytes(memGiB)*units.GiB, 12)
			rep := simMetric(b, strategy.Ratel, "13B", 32, srv)
			b.ReportMetric(rep.TokensPerSec, "tok/s")
			b.ReportMetric(rep.AlphaBytes.GiBf(), "spilled-GiB")
		})
	}
}

// BenchmarkEngineCorrectnessSuite runs the live mini-engine equivalence
// experiment (the "engine" artifact of cmd/ratelbench).
func BenchmarkEngineCorrectnessSuite(b *testing.B) { runExperiment(b, "engine") }

// BenchmarkEngineSSDScaling runs the real engine with throttled (in-memory)
// devices at 1 and 4 SSDs — the Fig. 10 aggregation effect in wall-clock.
func BenchmarkEngineSSDScaling(b *testing.B) {
	for _, devs := range []int{1, 4} {
		b.Run(fmt.Sprintf("%d-ssd", devs), func(b *testing.B) {
			e, err := engine.New(engine.Config{
				Model:    nn.Config{Vocab: 32, Seq: 16, Hidden: 32, Heads: 4, Layers: 4, Batch: 4, Seed: 1},
				GradMode: agoffload.Optimized,
				Swap:     map[int]engine.Tier{0: engine.SwapSSD, 1: engine.SwapSSD, 2: engine.SwapSSD, 3: engine.SwapSSD},
				Devices:  devs,
				SSD:      &nvme.Config{ReadBW: units.GBps(0.05), WriteBW: units.GBps(0.05)},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			tokens := make([][]int, 4)
			targets := make([][]int, 4)
			for i := range tokens {
				tokens[i] = make([]int, 16)
				targets[i] = make([]int, 16)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.TrainStep(tokens, targets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerate is greedy generation by full forward passes.
func BenchmarkGenerate(b *testing.B) {
	m, err := nn.NewModel(nn.Config{Vocab: 64, Seq: 32, Hidden: 32, Heads: 4, Layers: 4, Batch: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	prompt := []int{1, 2, 3, 4}
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate(prompt, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNVMeMirror quantifies the RAID-1 write penalty.
func BenchmarkNVMeMirror(b *testing.B) {
	for _, mirror := range []bool{false, true} {
		name := "striped"
		if mirror {
			name = "mirrored"
		}
		b.Run(name, func(b *testing.B) {
			a, err := nvme.Open(nvme.Config{Devices: 4, Mirror: mirror})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			payload := make([]byte, 1<<20)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Put("k", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
