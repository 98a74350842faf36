package engine

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/tensor/pool"
	"ratel/internal/trace"
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
	// Block 1 recomputes. (A Recompute tier on the last block would show no
	// recompute span: its cache is kept from forward.)
	swap := map[int]Tier{0: SwapSSD, 2: SwapHost}
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
		{obs.LaneCompute, "block1/recompute"},
		{obs.LaneCompute, "block0/bwd"},
		{obs.LaneCompute, labelEmbedBwd},
		{obs.LaneOffload, "block0/act-offload"},
		{obs.LaneOffload, "block2/act-pin"},
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
	// Recomputed block 1 must not have prefetch or offload spans.
	if n := names[obs.LanePrefetch]["block1/act-prefetch"]; n != 0 {
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
	// After 3 steps the SSD-swap block has reused its arena blob at least
	// once, and the step's working set is allocated and was all the last step
	// needed.
	for _, name := range []string{"engine.blob_reuses", "engine.step_arena_bytes", "engine.step_arena_peak_bytes"} {
		if snap[name] <= 0 {
			t.Fatalf("%s = %v, want > 0 (snapshot %v)", name, snap[name], snap)
		}
	}
	if peak, held := snap["engine.step_arena_peak_bytes"], snap["engine.step_arena_bytes"]; peak > held {
		t.Fatalf("step arena peak %v exceeds the %v it holds: the heap served a steady-state step", peak, held)
	}
	// The exported metric surface is a committed list: adding, renaming or
	// removing an instrument has to change testdata/metrics.golden too.
	if got := reg.Names(); !slices.Equal(got, goldenMetricNames(t)) {
		t.Fatalf("registered metric names differ from testdata/metrics.golden:\n%s", strings.Join(got, "\n"))
	}
	// Exported names are lower snake_case under one layer prefix, so every
	// exporter (expvar, OpenMetrics, the flight dump) can carry them as-is.
	shape := regexp.MustCompile(`^[a-z]+\.[a-z0-9]+(_[a-z0-9]+)*$`)
	for _, name := range reg.Names() {
		if !shape.MatchString(name) {
			t.Errorf("metric name %q is not layer.snake_case", name)
		}
	}
}

// goldenMetricNames reads the committed metric surface.
func goldenMetricNames(t *testing.T) []string {
	t.Helper()
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Fields(string(golden))
}

// TestEveryMetricRowRefreshed: the per-step refresh is one loop over the
// metrics table, so a row with the wrong accessor is the bug left to make.
// On a throttled mixed-swap engine that stalls in both directions every
// instrument in the golden list moves, bar the few that are zero here by
// construction; and under the inline-sync oracle, where no write-back trails
// the step, the byte gauges equal Stats() and Flows() exactly.
func TestEveryMetricRowRefreshed(t *testing.T) {
	zeroHere := map[string]bool{
		"engine.offload_queue_peak": true, // two SSD blocks never queue behind each other; TestPipelineWindowStall
		"engine.skipped_steps":      true, // no loss scaler; TestFlightRingSurvivesStepRewinds
		// The mini model's kernels all run inline on the step goroutine.
		"pool.jobs": true, "pool.job_ns": true, "pool.stolen_chunks": true,
		"pool.submitter_chunks": true, "pool.worker_chunks": true,
	}
	for _, inline := range []bool{false, true} {
		reg := obs.NewRegistry()
		e := newEngine(t, Config{
			Model:           miniConfigWith(4),
			GradMode:        agoffload.Optimized,
			Swap:            map[int]Tier{0: SwapSSD, 2: SwapSSD, 3: SwapHost}, // block 1 recomputes
			PipelineDepth:   1,
			SSD:             &nvme.Config{OpLatency: time.Millisecond},
			Metrics:         reg,
			oracleInlineOpt: inline,
		})
		trainK(t, e, 3)
		snap := reg.Snapshot()
		if !inline {
			for _, name := range goldenMetricNames(t) {
				v, isGauge := snap[name]
				if !isGauge {
					v = snap[name+".count"]
				}
				if v == 0 && !zeroHere[name] {
					t.Errorf("%s = 0 after 3 steps: its row is not refreshed", name)
				}
			}
			ps := pool.DefaultStats()
			for name, want := range map[string]int64{"pool.jobs": ps.Jobs, "pool.inline_runs": ps.InlineRuns,
				"pool.submitter_chunks": ps.SubmitterChunks, "pool.worker_chunks": ps.WorkerChunks, "pool.stolen_chunks": ps.StolenChunks} {
				if snap[name] != float64(want) {
					t.Errorf("%s = %v, pool counter %d", name, snap[name], want)
				}
			}
			continue
		}
		st, flows := e.Stats(), e.Flows()
		for name, want := range map[string]int64{
			"engine.act_offload_bytes":   int64(st.ActBytesOffload),
			"engine.act_host_bytes":      int64(st.ActBytesHost),
			"engine.act_fetched_bytes":   int64(st.ActBytesFetched),
			"engine.recomputed_blocks":   int64(st.RecomputedBlocks),
			"nvme.read_bytes":            int64(st.SSD.BytesRead),
			"nvme.write_bytes":           int64(st.SSD.BytesWritten),
			"nvme.read_ops":              st.SSD.ReadOps,
			"nvme.write_ops":             st.SSD.WriteOps,
			"flow.compute_host_bytes":    flows.Edge(obs.EdgeComputeHost),
			"flow.host_nvme_read_bytes":  flows.Edge(obs.EdgeHostNVMeRead),
			"flow.host_nvme_write_bytes": flows.Edge(obs.EdgeHostNVMeWrite),
			"flow.codec_encode_bytes":    flows.Edge(obs.EdgeCodecEncode),
			"flow.codec_decode_bytes":    flows.Edge(obs.EdgeCodecDecode),
			"flow.activations_bytes":     flows.Purpose(obs.FlowActivations),
			"flow.params_bytes":          flows.Purpose(obs.FlowParams),
			"flow.grads_bytes":           flows.Purpose(obs.FlowGrads),
			"flow.opt_state_bytes":       flows.Purpose(obs.FlowOptState),
		} {
			if snap[name] != float64(want) || want == 0 {
				t.Errorf("%s = %v, engine counter %d (want equal and non-zero)", name, snap[name], want)
			}
		}
	}
}

// TestStepRecordSaidOnce: one value describes a step. After a plain step, an
// accumulation step and a failed-then-recovered step the flight ring's newest
// entry is LastStepMetrics(), field for field, and a failed step adds none.
func TestStepRecordSaidOnce(t *testing.T) {
	cfg := miniConfig()
	e := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapSSD, 1: SwapHost}})
	ringIs := func(when string, n int) {
		t.Helper()
		recs := e.FlightRecords()
		if len(recs) != n {
			t.Fatalf("%s: flight ring has %d records, want %d", when, len(recs), n)
		}
		last := StepMetrics{}
		if n > 0 {
			last = recs[n-1]
		}
		if got := e.LastStepMetrics(); got != last || got.Step != n {
			t.Fatalf("%s: LastStepMetrics = %+v, ring's newest entry = %+v, want equal and Step %d", when, got, last, n)
		}
	}
	ringIs("before the first step", 0)
	tokens, targets := data(cfg, 1)
	if _, err := e.TrainStep(tokens, targets); err != nil {
		t.Fatal(err)
	}
	ringIs("plain step", 1)
	if _, err := e.TrainStepAccum([]Batch{{tokens, targets}, {tokens, targets}}); err != nil {
		t.Fatal(err)
	}
	ringIs("accumulation step", 2)
	bad := [][]int{append([]int(nil), targets[0]...), targets[1]}
	bad[0][0] = cfg.Vocab + 5
	if _, err := e.TrainStep(tokens, bad); err == nil {
		t.Fatal("TrainStep with an out-of-vocabulary target succeeded")
	}
	ringIs("failed step", 2)
	if _, err := e.TrainStep(tokens, targets); err != nil {
		t.Fatal(err)
	}
	ringIs("recovered step", 3)
}

// TestFlightRingSurvivesStepRewinds: a record is numbered with the engine's
// own step ordinal, not the optimizer's step — which a loss-scale overflow
// cancels and a checkpoint load rewinds — so after both the ring is still
// strictly increasing and the postmortem built from it loads.
func TestFlightRingSurvivesStepRewinds(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEngine(t, Config{
		GradMode:         agoffload.Serialized,
		LossScale:        1 << 24, // every early step overflows and is skipped
		DynamicLossScale: true,
		Metrics:          reg,
	})
	var ck bytes.Buffer
	if err := e.SaveCheckpoint(&ck); err != nil {
		t.Fatal(err)
	}
	trainK(t, e, 6)
	skipped := e.Stats().SkippedSteps
	if skipped == 0 {
		t.Fatal("no overflow skips despite a 2^24 initial scale")
	}
	if got := reg.Snapshot()["engine.skipped_steps"]; got != float64(skipped) {
		t.Errorf("engine.skipped_steps = %v, Stats %d", got, skipped)
	}
	if err := e.LoadCheckpoint(&ck); err != nil {
		t.Fatal(err)
	}
	trainK(t, e, 1)

	recs := e.FlightRecords()
	if len(recs) != 7 {
		t.Fatalf("flight ring has %d records, want 7", len(recs))
	}
	for i, r := range recs {
		if r.Step != i+1 {
			t.Errorf("record %d numbered %d, want %d", i, r.Step, i+1)
		}
	}
	var dump bytes.Buffer
	if err := trace.WriteFlightDump(trace.BuildFlightDump("test", recs, nil, nil), &dump); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ReadFlightDump(&dump); err != nil {
		t.Fatalf("the engine's own postmortem does not load: %v", err)
	}
}

// TestStatsAccumulateAcrossMicroBatches: engine.Stats() must count data
// movement from every micro-batch of a TrainStepAccum step, not only the
// final one, and StepMetrics must sum stage times and tokens across them.
func TestStatsAccumulateAcrossMicroBatches(t *testing.T) {
	cfg := miniConfig()
	const microN = 3
	swap := map[int]Tier{0: SwapSSD, 2: SwapHost} // block 1 recomputes
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
