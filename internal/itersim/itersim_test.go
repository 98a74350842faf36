package itersim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ratel/internal/capacity"
	"ratel/internal/hw"
	"ratel/internal/model"
	"ratel/internal/plan"
	"ratel/internal/sim"
	"ratel/internal/strategy"
	"ratel/internal/trace"
	"ratel/internal/units"
)

func srv4090() hw.Server { return hw.EvalServer(hw.RTX4090, 768*units.GiB, 12) }

func mustSim(t *testing.T, p strategy.Policy, name string, batch int) Report {
	t.Helper()
	rep, err := Simulate(p, model.MustByName(name), batch, srv4090())
	if err != nil {
		t.Fatalf("%s/%s/b%d: %v", p.Name, name, batch, err)
	}
	return rep
}

// TestFig1aZeROInfinityBreakdown anchors the simulated ZeRO-Infinity stage
// times for the 13B model at batch 32 against Fig. 1a: forward ~14 s,
// backward ~26 s, optimizer ~23 s, GPU busy ~36%.
func TestFig1aZeROInfinityBreakdown(t *testing.T) {
	rep := mustSim(t, strategy.ZeROInfinity, "13B", 32)
	if f := float64(rep.ForwardEnd); f < 10 || f > 18 {
		t.Errorf("forward = %.1f s, want ~14 s", f)
	}
	if b := float64(rep.BackwardEnd - rep.ForwardEnd); b < 18 || b > 30 {
		t.Errorf("backward = %.1f s, want ~26 s", b)
	}
	if o := float64(rep.OptimizerTail); o < 18 || o > 28 {
		t.Errorf("optimizer stage = %.1f s, want ~23 s", o)
	}
	if g := rep.GPUBusyFrac; g < 0.30 || g > 0.48 {
		t.Errorf("GPU busy = %.0f%%, want ~36%%", 100*g)
	}
	if s := rep.OptimizerShare; s < 0.30 || s > 0.60 {
		t.Errorf("optimizer share = %.0f%%, want 30-60%% (Fig. 2c)", 100*s)
	}
}

// TestFig1cRatelBreakdown anchors Ratel on the same workload: short forward
// (~5 s), optimizer hidden behind backward (tail ≈ 0), high GPU utilization.
func TestFig1cRatelBreakdown(t *testing.T) {
	rep := mustSim(t, strategy.Ratel, "13B", 32)
	if f := float64(rep.ForwardEnd); f < 4 || f > 8 {
		t.Errorf("forward = %.1f s, want ~5-6 s", f)
	}
	if o := float64(rep.OptimizerTail); o > 2.5 {
		t.Errorf("optimizer tail = %.1f s, want hidden behind backward (§IV-C)", o)
	}
	if g := rep.GPUBusyFrac; g < 0.80 {
		t.Errorf("GPU busy = %.0f%%, want > 80%%", 100*g)
	}
	if rep.FLOPr <= 0 {
		t.Error("Ratel should recompute part of the activations on this server")
	}
}

// TestFig1bG10Breakdown: G10's in-GPU optimizer creates a distinct optimizer
// stage dominated by model-state transfer (~13 s in the paper).
func TestFig1bG10Breakdown(t *testing.T) {
	rep := mustSim(t, strategy.G10, "13B", 32)
	if o := float64(rep.OptimizerTail); o < 8 || o > 16 {
		t.Errorf("G10 optimizer stage = %.1f s, want ~13 s", o)
	}
	if rep.FLOPr != 0 {
		t.Error("G10 swaps all activations and never recomputes")
	}
	if rep.AG2M != model.MustByName("13B").Aall(32) {
		t.Errorf("G10 should swap all activations, got %v", rep.AG2M)
	}
}

// TestFig5aThroughputRatios checks the headline end-to-end comparison at
// batch 32 on the RTX 4090: Ratel ≈ 2.3x ZeRO-Offload, ≈ 3x ZeRO-Infinity,
// and 5-9x Colossal-AI (paper: 2.32x / 3.46x / 8.02x).
func TestFig5aThroughputRatios(t *testing.T) {
	ratel := mustSim(t, strategy.Ratel, "13B", 32).TokensPerSec
	zo := mustSim(t, strategy.ZeROOffload, "13B", 32).TokensPerSec
	zi := mustSim(t, strategy.ZeROInfinity, "13B", 32).TokensPerSec
	col := mustSim(t, strategy.ColossalAI, "13B", 32).TokensPerSec
	if r := ratel / zo; r < 1.8 || r > 3.2 {
		t.Errorf("Ratel/ZeRO-Offload = %.2fx, want ~2.3x", r)
	}
	if r := ratel / zi; r < 2.3 || r > 4.6 {
		t.Errorf("Ratel/ZeRO-Infinity = %.2fx, want ~3.5x", r)
	}
	if r := ratel / col; r < 4.5 || r > 10 {
		t.Errorf("Ratel/Colossal-AI = %.2fx, want ~8x", r)
	}
}

// TestThroughputMonotoneInBatch: for every system, throughput does not
// decrease with batch size over its feasible range (Fig. 5a/5b shape).
func TestThroughputMonotoneInBatch(t *testing.T) {
	for _, p := range []strategy.Policy{strategy.Ratel, strategy.ZeROInfinity, strategy.ZeROOffload} {
		prev := 0.0
		for _, b := range []int{8, 16, 32, 64} {
			rep, err := Simulate(p, model.MustByName("13B"), b, srv4090())
			if err != nil {
				break
			}
			if rep.TokensPerSec < prev*0.98 {
				t.Errorf("%s: throughput dropped at batch %d (%.0f -> %.0f)",
					p.Name, b, prev, rep.TokensPerSec)
			}
			prev = rep.TokensPerSec
		}
	}
}

// TestFig7ActiveGradientOffloading: optimized >= naive and optimized >
// serialized, with the gap shrinking at small batch (§V-D).
func TestFig7ActiveGradientOffloading(t *testing.T) {
	for _, b := range []int{16, 32, 64} {
		opt := mustSim(t, strategy.Ratel, "13B", b).TokensPerSec
		nai := mustSim(t, strategy.RatelNaive, "13B", b).TokensPerSec
		ser := mustSim(t, strategy.RatelZeRO, "13B", b).TokensPerSec
		if opt < nai || opt < ser {
			t.Errorf("batch %d: optimized (%.0f) not best (naive %.0f, serialized %.0f)",
				b, opt, nai, ser)
		}
	}
	gainLarge := mustSim(t, strategy.Ratel, "13B", 64).TokensPerSec /
		mustSim(t, strategy.RatelZeRO, "13B", 64).TokensPerSec
	if gainLarge < 1.15 {
		t.Errorf("batch 64: optimized/serialized = %.2fx, want ~1.3x (Fig. 7a)", gainLarge)
	}
}

// TestFig5cPeakUtilization: Ratel reaches >= 85% of measured peak for models
// up to 70B and drops to ~50-65% at 175B where the feasible batch shrinks.
func TestFig5cPeakUtilization(t *testing.T) {
	grid := []int{1, 2, 4, 8, 16, 32, 64, 128}
	peak := hw.RTX4090.PeakFP16.TFLOPSf()
	for _, name := range []string{"13B", "30B", "70B"} {
		rep, err := BestThroughput(strategy.Ratel, model.MustByName(name), srv4090(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if frac := rep.TFLOPS / peak; frac < 0.85 {
			t.Errorf("%s: %.0f%% of peak, want >= 85%% (paper: 90-95%%)", name, 100*frac)
		}
	}
	rep, err := BestThroughput(strategy.Ratel, model.MustByName("175B"), srv4090(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if frac := rep.TFLOPS / peak; frac < 0.35 || frac > 0.75 {
		t.Errorf("175B: %.0f%% of peak, want ~53%%", 100*frac)
	}
}

// TestFig10aSSDScaling: near-linear Ratel scaling from 1 to 3 SSDs for the
// 135B model, small gains from 6 to 12; ZeRO-Infinity grows slowly.
func TestFig10aSSDScaling(t *testing.T) {
	grid := []int{1, 2, 4, 8, 16, 32}
	tput := func(p strategy.Policy, ssds int) float64 {
		rep, err := BestThroughput(p, model.MustByName("135B"), srv4090().WithSSDs(ssds), grid)
		if err != nil {
			t.Fatalf("%s with %d SSDs: %v", p.Name, ssds, err)
		}
		return rep.TokensPerSec
	}
	r1, r3 := tput(strategy.Ratel, 1), tput(strategy.Ratel, 3)
	if scale := r3 / r1; scale < 2.3 {
		t.Errorf("Ratel 1->3 SSDs scaled %.2fx, want near-linear (>2.3x)", scale)
	}
	r6, r12 := tput(strategy.Ratel, 6), tput(strategy.Ratel, 12)
	if gain := r12 / r6; gain > 1.35 {
		t.Errorf("Ratel 6->12 SSDs gained %.2fx, want small (<1.35x)", gain)
	}
	z1, z12 := tput(strategy.ZeROInfinity, 1), tput(strategy.ZeROInfinity, 12)
	if zscale, rscale := z12/z1, r12/r1; zscale >= rscale {
		t.Errorf("ZeRO-Infinity scaled %.1fx vs Ratel %.1fx; Ratel should aggregate SSDs better", zscale, rscale)
	}
}

// TestFig10bSSDKnees: the batch-dependent SSD counts at which Ratel's 13B
// throughput saturates (paper: 12 SSDs for batch 32, 6 for 48, 3 for 64).
func TestFig10bSSDKnees(t *testing.T) {
	saturated := func(batch, ssds int) bool {
		at := mustSimSSD(t, batch, ssds)
		max := mustSimSSD(t, batch, 12)
		return at >= 0.93*max
	}
	if saturated(32, 3) {
		t.Error("batch 32 should need more than 3 SSDs to saturate")
	}
	if !saturated(48, 6) {
		t.Error("batch 48 should saturate by 6 SSDs")
	}
	if !saturated(64, 3) {
		t.Error("batch 64 should saturate by 3 SSDs")
	}
}

func mustSimSSD(t *testing.T, batch, ssds int) float64 {
	t.Helper()
	rep, err := Simulate(strategy.Ratel, model.MustByName("13B"), batch, srv4090().WithSSDs(ssds))
	if err != nil {
		t.Fatal(err)
	}
	return rep.TFLOPS
}

// TestFig11MultiGPU: Ratel outperforms ZeRO-Infinity on 2 and 4 GPUs, and
// 4 GPUs beat 2 at the same global batch.
func TestFig11MultiGPU(t *testing.T) {
	cfg := model.MustByName("13B")
	for _, n := range []int{2, 4} {
		srv := srv4090().WithGPUs(n)
		ratel, err := SimulateMultiGPU(strategy.Ratel, cfg, 64, srv)
		if err != nil {
			t.Fatal(err)
		}
		zi, err := SimulateMultiGPU(strategy.ZeROInfinity, cfg, 64, srv)
		if err != nil {
			t.Fatal(err)
		}
		if ratel.TokensPerSec <= zi.TokensPerSec {
			t.Errorf("%d GPUs: Ratel (%.0f) should beat ZeRO-Infinity (%.0f)",
				n, ratel.TokensPerSec, zi.TokensPerSec)
		}
		if ratel.GPUs != n {
			t.Errorf("report GPUs = %d, want %d", ratel.GPUs, n)
		}
	}
	two, _ := SimulateMultiGPU(strategy.Ratel, cfg, 128, srv4090().WithGPUs(2))
	four, _ := SimulateMultiGPU(strategy.Ratel, cfg, 128, srv4090().WithGPUs(4))
	if four.TokensPerSec <= two.TokensPerSec {
		t.Errorf("4 GPUs (%.0f tok/s) should beat 2 GPUs (%.0f tok/s)",
			four.TokensPerSec, two.TokensPerSec)
	}
	if _, err := SimulateMultiGPU(strategy.Ratel, cfg, 63, srv4090().WithGPUs(2)); err == nil {
		t.Error("indivisible global batch accepted")
	}
}

// TestFig12Diffusion: Ratel trains DiT models Fast-DiT cannot, and matches
// or beats it where both run.
func TestFig12Diffusion(t *testing.T) {
	grid := []int{1, 2, 4, 8, 16, 32, 64, 128}
	small := model.MustByName("DiT-0.67B")
	fd, err := BestThroughput(strategy.FastDiT, small, srv4090(), grid)
	if err != nil {
		t.Fatalf("Fast-DiT on DiT-0.67B: %v", err)
	}
	ra, err := BestThroughput(strategy.Ratel, small, srv4090(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if ra.ImagesPerSec < fd.ImagesPerSec {
		t.Errorf("Ratel (%.1f img/s) below Fast-DiT (%.1f img/s) on DiT-0.67B",
			ra.ImagesPerSec, fd.ImagesPerSec)
	}
	// Fast-DiT cannot hold a 10B DiT; Ratel trains even the 40B.
	if _, err := BestThroughput(strategy.FastDiT, model.MustByName("DiT-10B"), srv4090(), grid); err == nil {
		t.Error("Fast-DiT should OOM on DiT-10B")
	}
	if _, err := BestThroughput(strategy.Ratel, model.MustByName("DiT-40B"), srv4090(), grid); err != nil {
		t.Errorf("Ratel should train DiT-40B: %v", err)
	}
}

// TestFig9aActivationStrategies: with 512 GiB main memory and the same
// workload, Ratel's holistic planner is at least as fast as every
// alternative activation-management strategy.
func TestFig9aActivationStrategies(t *testing.T) {
	srv := hw.EvalServer(hw.RTX4090, 512*units.GiB, 12)
	cfg := model.MustByName("70B")
	best, err := Simulate(strategy.Ratel, cfg, 32, srv)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []strategy.Policy{strategy.RatelDS, strategy.RatelCap, strategy.RatelG10, strategy.RatelCM} {
		rep, err := Simulate(p, cfg, 32, srv)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if rep.TokensPerSec > best.TokensPerSec*1.001 {
			t.Errorf("%s (%.0f tok/s) beat the holistic planner (%.0f tok/s)",
				p.Name, rep.TokensPerSec, best.TokensPerSec)
		}
	}
}

// TestInfeasibleConfigsFail ensures capacity gating is wired in.
func TestInfeasibleConfigsFail(t *testing.T) {
	if _, err := Simulate(strategy.FlashNeuron, model.MustByName("13B"), 8, srv4090()); err == nil {
		t.Error("FlashNeuron 13B should fail on a 24 GB GPU (§V-C)")
	}
	if _, err := Simulate(strategy.ZeROOffload, model.MustByName("175B"), 1, srv4090()); err == nil {
		t.Error("ZeRO-Offload 175B should exceed main memory")
	}
}

// TestStageAccountingInvariants checks basic report sanity across systems.
func TestStageAccountingInvariants(t *testing.T) {
	for _, p := range []strategy.Policy{strategy.Ratel, strategy.ZeROInfinity,
		strategy.ZeROOffload, strategy.ColossalAI, strategy.G10, strategy.RatelCpuAct} {
		rep, err := Simulate(p, model.MustByName("13B"), 16, srv4090())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !(rep.ForwardEnd > 0 && rep.ForwardEnd <= rep.BackwardEnd && rep.BackwardEnd <= rep.Makespan) {
			t.Errorf("%s: stage ordering broken: fwd %v, bwd %v, total %v",
				p.Name, rep.ForwardEnd, rep.BackwardEnd, rep.Makespan)
		}
		if rep.TokensPerSec <= 0 || rep.GPUBusyFrac <= 0 || rep.GPUBusyFrac > 1 {
			t.Errorf("%s: bad throughput/utilization: %+v", p.Name, rep)
		}
		if rep.AlphaBytes > rep.AG2M {
			t.Errorf("%s: alpha bytes %v exceed AG2M %v", p.Name, rep.AlphaBytes, rep.AG2M)
		}
	}
}

// TestSimulateTensorParallel covers the Megatron path.
func TestSimulateTensorParallel(t *testing.T) {
	dgx := hw.DGXA100()
	rep, err := SimulateTensorParallel(strategy.Megatron, model.MustByName("30B"), 32, dgx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TokensPerSec <= 0 || rep.GPUs != 8 {
		t.Errorf("bad Megatron report: %+v", rep)
	}
	if _, err := SimulateTensorParallel(strategy.Ratel, model.MustByName("30B"), 32, dgx); err == nil {
		t.Error("non-TP policy accepted by SimulateTensorParallel")
	}
	// The 175B model does not fit the DGX without offloading (§V-I
	// motivation).
	if _, err := SimulateTensorParallel(strategy.Megatron, model.MustByName("175B"), 8, dgx); err == nil {
		t.Error("Megatron 175B on DGX should fail")
	}
}

// TestBestThroughputFailsWhenNothingFits covers the error path.
func TestBestThroughputFailsWhenNothingFits(t *testing.T) {
	if _, err := BestThroughput(strategy.FlashNeuron, model.MustByName("70B"), srv4090(), []int{8, 16}); err == nil {
		t.Error("expected no feasible batch")
	}
}

// TestProfilingIterationOverhead: the first (profiling) iteration costs
// 2-3x a steady Ratel iteration (§IV-B), so it is negligible over a
// fine-tuning run.
func TestProfilingIterationOverhead(t *testing.T) {
	prof, err := SimulateProfiling(model.MustByName("13B"), 32, srv4090())
	if err != nil {
		t.Fatal(err)
	}
	steady := mustSim(t, strategy.Ratel, "13B", 32)
	ratio := float64(prof.Makespan) / float64(steady.Makespan)
	if ratio < 1.5 || ratio > 3.5 {
		t.Errorf("profiling iteration = %.2fx a steady one, want 2-3x", ratio)
	}
}

// TestSimulationInvariantsFuzzed: random feasible configurations always
// produce well-formed reports — ordered stage boundaries, utilizations in
// [0,1], positive throughput — and throughput never falls when compute
// or bandwidth improves.
func TestSimulationInvariantsFuzzed(t *testing.T) {
	pols := []strategy.Policy{strategy.Ratel, strategy.RatelNaive, strategy.RatelZeRO,
		strategy.ZeROInfinity, strategy.ZeROOffload, strategy.G10, strategy.RatelCpuAct}
	names := []string{"6B", "13B", "30B"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := pols[rng.Intn(len(pols))]
		cfg := model.MustByName(names[rng.Intn(len(names))])
		batch := 1 << rng.Intn(6)
		srv := hw.EvalServer(hw.RTX4090, units.Bytes(128+rng.Intn(640))*units.GiB, 1+rng.Intn(12))
		rep, err := Simulate(p, cfg, batch, srv)
		if err != nil {
			return true // infeasible configs are allowed to fail
		}
		if !(rep.ForwardEnd > 0 && rep.ForwardEnd <= rep.BackwardEnd && rep.BackwardEnd <= rep.Makespan) {
			return false
		}
		if rep.GPUBusyFrac <= 0 || rep.GPUBusyFrac > 1+1e-9 {
			return false
		}
		if rep.TokensPerSec <= 0 || rep.OptimizerShare < 0 || rep.OptimizerShare > 1 {
			return false
		}
		if rep.AlphaBytes > rep.AG2M || rep.FLOPr < 0 {
			return false
		}
		// A strictly faster GPU never materially slows the iteration.
		// (Non-preemptive list scheduling admits tiny Graham anomalies, so
		// allow a 2% slack.)
		faster := srv
		faster.GPU.PeakFP16 *= 2
		rep2, err := Simulate(p, cfg, batch, faster)
		if err != nil {
			return false
		}
		return float64(rep2.Makespan) <= 1.02*float64(rep.Makespan)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFlashNeuronPath: FlashNeuron (states on GPU, activations to SSD)
// simulates on a small model and is compute-bound — no optimizer stage on
// the CPU, no model-state streaming.
func TestFlashNeuronPath(t *testing.T) {
	rep, err := Simulate(strategy.FlashNeuron, model.MustByName("0.76B"), 8, srv4090())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TokensPerSec <= 0 {
		t.Fatal("FlashNeuron produced no throughput")
	}
	if rep.FLOPr != 0 {
		t.Error("FlashNeuron does not recompute (it swaps all activations)")
	}
	// In-core optimizer: the CPU Adam resource is never used.
	if busy := rep.Result.Busy[sim.CPUAdam]; busy != 0 {
		t.Errorf("FlashNeuron used the CPU optimizer for %v", busy)
	}
}

// TestColossalKeepGPUPath: Colossal-AI keeps inter-block activations on the
// GPU, so its AG2M transfer volume is zero.
func TestColossalKeepGPUPath(t *testing.T) {
	rep := mustSim(t, strategy.ColossalAI, "13B", 16)
	if rep.AG2M != 0 {
		t.Errorf("Colossal-AI swapped %v, want 0 (activations stay on GPU)", rep.AG2M)
	}
	if rep.FLOPr <= 0 {
		t.Error("Colossal-AI recomputes intra-block activations")
	}
}

// TestDelayedOverlapAblation quantifies footnote 4's trade: the delayed
// update lets ZeRO-Offload hide its optimizer stage (throughput rises), yet
// Ratel's synchronous active gradient offloading still matches or beats it —
// without the staleness.
func TestDelayedOverlapAblation(t *testing.T) {
	sync := mustSim(t, strategy.ZeROOffload, "13B", 32)
	delayed, err := SimulateDelayedOverlap(strategy.ZeROOffload, model.MustByName("13B"), 32, srv4090())
	if err != nil {
		t.Fatal(err)
	}
	if delayed.TokensPerSec <= sync.TokensPerSec {
		t.Errorf("delayed update should raise ZeRO-Offload throughput: %.0f vs %.0f",
			delayed.TokensPerSec, sync.TokensPerSec)
	}
	ratel := mustSim(t, strategy.Ratel, "13B", 32)
	if ratel.TokensPerSec < delayed.TokensPerSec {
		t.Errorf("Ratel (%.0f tok/s, synchronous) should match or beat delayed ZeRO-Offload (%.0f tok/s)",
			ratel.TokensPerSec, delayed.TokensPerSec)
	}
	if delayed.OptimizerTail != 0 || delayed.OptimizerShare != 0 {
		t.Error("delayed-overlap report should hide the optimizer stage")
	}
	if delayed.Policy != "ZeRO-Offload+delayed" {
		t.Errorf("policy label = %q", delayed.Policy)
	}
}

// TestAnalyticalModelFitsSimulation: the closed-form Eqs. 1-5 prediction
// sits within 25% below the simulated makespan (the simulator pays pipeline
// fill/drain that the pure max() model ignores, so sim >= analytical).
func TestAnalyticalModelFitsSimulation(t *testing.T) {
	srv := srv4090()
	for _, name := range []string{"13B", "70B"} {
		profile := capacity.PlannerProfile(strategy.Ratel, model.MustByName(name), 32, srv)
		pl, err := plan.Optimize(profile)
		if err != nil {
			t.Fatal(err)
		}
		rep := mustSim(t, strategy.Ratel, name, 32)
		ratio := float64(rep.Makespan) / float64(pl.Predicted.Titer)
		if ratio < 0.98 || ratio > 1.25 {
			t.Errorf("%s: simulated/analytical = %.2fx, want [1.0, 1.25]", name, ratio)
		}
	}
}

func TestReportStageUtilization(t *testing.T) {
	rep := mustSim(t, strategy.Ratel, "13B", 32)
	util := trace.StageUtilization(rep.Result, trace.StageWindows{ForwardEnd: rep.ForwardEnd, BackwardEnd: rep.BackwardEnd, End: rep.Makespan})
	if got := util["forward"][sim.GPUCompute]; got < 0.8 {
		t.Errorf("forward GPU utilization = %.2f, want high", got)
	}
	// Ratel's optimizer window is nearly empty; the CPU is busy during
	// backward instead.
	if got := util["backward"][sim.CPUAdam]; got < 0.5 {
		t.Errorf("backward CPU utilization = %.2f, want > 0.5 (active offloading)", got)
	}
	for stage, m := range util {
		for res, v := range m {
			if v < 0 || v > 1+1e-9 {
				t.Errorf("%s/%s utilization = %v", stage, res, v)
			}
		}
	}
}

// TestDiTThroughputOrdering: Ratel's image throughput decreases
// monotonically across the Table VI scale-up (Fig. 12 shape).
func TestDiTThroughputOrdering(t *testing.T) {
	grid := []int{1, 2, 4, 8, 16, 32, 64, 128}
	prev := 1e18
	for _, name := range []string{"DiT-0.67B", "DiT-0.90B", "DiT-1.4B", "DiT-10B", "DiT-20B", "DiT-40B"} {
		rep, err := BestThroughput(strategy.Ratel, model.MustByName(name), srv4090(), grid)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.ImagesPerSec >= prev {
			t.Errorf("%s: %.2f img/s not below previous %.2f", name, rep.ImagesPerSec, prev)
		}
		prev = rep.ImagesPerSec
	}
}
