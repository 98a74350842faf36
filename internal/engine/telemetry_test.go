package engine

import (
	"os"
	"strings"
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/obs"
	"ratel/internal/units"
)

// TestTracingIsTransparent: enabling the tracer must not change a single
// computed value — losses and final parameters are bit-identical to an
// untraced run.
func TestTracingIsTransparent(t *testing.T) {
	swap := map[int]Tier{0: SwapSSD, 2: SwapHost}
	plain := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap})
	lossPlain := trainK(t, plain, 3)

	tr := obs.NewTracer(obs.DefaultCapacity)
	traced := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap, Tracer: tr, Metrics: obs.NewRegistry()})
	lossTraced := trainK(t, traced, 3)

	for i := range lossPlain {
		if lossPlain[i] != lossTraced[i] {
			t.Fatalf("loss[%d]: traced %v != untraced %v", i, lossTraced[i], lossPlain[i])
		}
	}
	p0, p1 := paramsSnapshot(plain.Model()), paramsSnapshot(traced.Model())
	for i := range p0 {
		if p0[i] != p1[i] {
			t.Fatalf("parameter %d differs under tracing", i)
		}
	}
}

// TestTraceCoversAllStages checks that one traced step records spans on
// every lane the step exercises, with the precomputed label scheme.
func TestTraceCoversAllStages(t *testing.T) {
	tr := obs.NewTracer(obs.DefaultCapacity)
	swap := map[int]Tier{0: SwapSSD, 1: SwapHost} // block 2 recomputes
	e := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap, Tracer: tr})
	trainK(t, e, 1)

	names := make(map[string]map[string]int) // lane -> name -> count
	for _, s := range tr.Spans() {
		if names[s.Lane] == nil {
			names[s.Lane] = make(map[string]int)
		}
		names[s.Lane][s.Name]++
	}
	want := []struct{ lane, name string }{
		{obs.LaneCompute, labelEmbedFwd},
		{obs.LaneCompute, "block0/fwd"},
		{obs.LaneCompute, "block2/fwd"},
		{obs.LaneCompute, labelHeadFwd},
		{obs.LaneCompute, labelHeadBwd},
		{obs.LaneCompute, "block2/recompute"},
		{obs.LaneCompute, "block0/bwd"},
		{obs.LaneCompute, labelEmbedBwd},
		{obs.LaneOffload, "block0/act-offload"},
		{obs.LaneOffload, "block1/act-pin"},
		{obs.LanePrefetch, "block0/act-prefetch"},
		{obs.LaneNVMeWrite, "act/block0"},
		{obs.LaneNVMeRead, "act/block0"},
		{obs.LaneAdam, "block0/opt-adam"},
		{obs.LaneAdam, "head/opt-adam"},
		{obs.LaneStep, labelStep},
		{obs.LaneStep, labelFwdEnd},
		{obs.LaneStep, labelBwdEnd},
	}
	for _, w := range want {
		if names[w.lane][w.name] == 0 {
			t.Errorf("no span %q on lane %q (have %v)", w.name, w.lane, names[w.lane])
		}
	}
	// Recomputed block 2 must not have prefetch or offload spans.
	if n := names[obs.LanePrefetch]["block2/act-prefetch"]; n != 0 {
		t.Errorf("recomputed block got %d prefetch spans", n)
	}
}

// TestStepMetrics checks the per-step profile: positive stage times, token
// accounting, and Adam kernel deltas that reset between steps.
func TestStepMetrics(t *testing.T) {
	cfg := miniConfig()
	e := newEngine(t, Config{GradMode: agoffload.Optimized, Metrics: obs.NewRegistry()})
	trainK(t, e, 2)

	m := e.LastStepMetrics()
	if m.Step != 2 {
		t.Fatalf("Step = %d, want 2", m.Step)
	}
	if m.Forward <= 0 || m.Backward <= 0 || m.Wall <= 0 {
		t.Fatalf("non-positive stage times: %+v", m)
	}
	if m.Wall < m.Forward || m.Wall < m.Backward {
		t.Fatalf("wall %v shorter than a stage (fwd %v, bwd %v)", m.Wall, m.Forward, m.Backward)
	}
	if want := cfg.Batch * cfg.Seq; m.Tokens != want {
		t.Fatalf("Tokens = %d, want %d", m.Tokens, want)
	}
	if m.TokensPerSec <= 0 {
		t.Fatalf("TokensPerSec = %v", m.TokensPerSec)
	}
	// One step's Adam work is the whole model once, not twice (the deltas
	// must reset between steps).
	var total int64
	for _, p := range e.Model().Params() {
		total += int64(p.W.Numel())
	}
	if m.AdamParams != total {
		t.Fatalf("AdamParams = %d, want %d (one full model pass)", m.AdamParams, total)
	}
	if m.AdamBusy <= 0 || m.AdamParamsPerSec() <= 0 {
		t.Fatalf("AdamBusy = %v, rate = %v", m.AdamBusy, m.AdamParamsPerSec())
	}
}

// TestRegistryUpdatedPerStep checks that the metrics registry reflects the
// engine after a step.
func TestRegistryUpdatedPerStep(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEngine(t, Config{GradMode: agoffload.Serialized, Swap: map[int]Tier{0: SwapSSD}, Metrics: reg})
	trainK(t, e, 3)

	snap := reg.Snapshot()
	if got := snap["engine.steps"]; got != 3 {
		t.Fatalf("engine.steps = %v, want 3", got)
	}
	cfg := miniConfig()
	if got := snap["engine.tokens"]; got != float64(3*cfg.Batch*cfg.Seq) {
		t.Fatalf("engine.tokens = %v", got)
	}
	for _, name := range []string{"engine.tokens_per_sec", "engine.step_ms", "engine.backward_ms",
		"engine.act_offload_bytes", "nvme.write_bytes", "nvme.read_bytes"} {
		if snap[name] <= 0 {
			t.Fatalf("%s = %v, want > 0 (snapshot %v)", name, snap[name], snap)
		}
	}
	st := e.Stats()
	if got := snap["engine.act_offload_bytes"]; got != float64(st.ActBytesOffload) {
		t.Fatalf("act_offload_bytes %v != stats %v", got, st.ActBytesOffload)
	}
	// Buffer-reuse counters: after 3 steps the SSD-swap block has revived
	// its arena blob and ring cache at least once past the first step.
	for _, name := range []string{"engine.blob_reuses", "engine.ring_reuses"} {
		if snap[name] <= 0 {
			t.Fatalf("%s = %v, want > 0 (snapshot %v)", name, snap[name], snap)
		}
	}
	// The exported metric surface is a committed list: adding, renaming or
	// removing an instrument has to change testdata/metrics.golden too.
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(reg.Names(), "\n") + "\n"; got != string(golden) {
		t.Fatalf("registered metric names differ from testdata/metrics.golden:\n%s", got)
	}
}

// TestStatsAccumulateAcrossMicroBatches: engine.Stats() must count data
// movement from every micro-batch of a TrainStepAccum step, not only the
// final one, and StepMetrics must sum stage times and tokens across them.
func TestStatsAccumulateAcrossMicroBatches(t *testing.T) {
	cfg := miniConfig()
	const microN = 3
	swap := map[int]Tier{0: SwapSSD, 1: SwapHost} // block 2 recomputes
	e := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap, Metrics: obs.NewRegistry()})

	// Baseline: one plain step's movement.
	tok, tgt := data(cfg, 1)
	if _, err := e.TrainStep(tok, tgt); err != nil {
		t.Fatal(err)
	}
	base := e.Stats()
	perBatchOffload := base.ActBytesOffload
	perBatchHost := base.ActBytesHost
	perBatchFetched := base.ActBytesFetched
	if perBatchOffload == 0 || perBatchHost == 0 || perBatchFetched == 0 {
		t.Fatalf("baseline step moved no activation bytes: %+v", base)
	}

	micro := make([]Batch, microN)
	for i := range micro {
		mt, mg := data(cfg, int64(10+i))
		micro[i] = Batch{Tokens: mt, Targets: mg}
	}
	if _, err := e.TrainStepAccum(micro); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Steps != base.Steps+1 {
		t.Fatalf("Steps = %d, want %d (accumulation is one optimizer step)", st.Steps, base.Steps+1)
	}
	if got, want := st.ActBytesOffload-perBatchOffload, units.Bytes(microN)*perBatchOffload; got != want {
		t.Fatalf("offload bytes across %d micro-batches = %v, want %v", microN, got, want)
	}
	if got, want := st.ActBytesHost-perBatchHost, units.Bytes(microN)*perBatchHost; got != want {
		t.Fatalf("host bytes across %d micro-batches = %v, want %v", microN, got, want)
	}
	if got, want := st.ActBytesFetched-perBatchFetched, units.Bytes(microN)*perBatchFetched; got != want {
		t.Fatalf("fetched bytes across %d micro-batches = %v, want %v", microN, got, want)
	}
	if got, want := st.RecomputedBlocks, base.RecomputedBlocks+microN; got != want {
		t.Fatalf("RecomputedBlocks = %d, want %d", got, want)
	}

	m := e.LastStepMetrics()
	if want := microN * cfg.Batch * cfg.Seq; m.Tokens != want {
		t.Fatalf("accum StepMetrics.Tokens = %d, want %d", m.Tokens, want)
	}
	if m.Forward <= 0 || m.Backward <= 0 || m.Wall < m.Forward {
		t.Fatalf("accum stage times inconsistent: %+v", m)
	}
}
