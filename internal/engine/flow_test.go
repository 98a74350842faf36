package engine

import (
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/obs"
	"ratel/internal/units"
)

// TestFlowLedgerReconcilesWithNVMe is the ledger's ground-truth check: the
// host_nvme_read / host_nvme_write rows are fed from the same call sites
// that maintain the array's own byte counters, so over any training window
// the two accountings must agree exactly. Stats() is the joined view of the
// array: it waits out the optimizer's trailing write-back, so the Flows()
// read after it sees the same transfers.
func TestFlowLedgerReconcilesWithNVMe(t *testing.T) {
	swap := map[int]Tier{0: SwapSSD, 1: SwapSSD}
	e := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap, Metrics: obs.NewRegistry()})

	stats0 := e.Stats().SSD
	flows0 := e.Flows()
	trainK(t, e, 3)
	stats1 := e.Stats().SSD
	flows1 := e.Flows()

	d := flows1.Sub(flows0)
	wroteBytes := int64(stats1.BytesWritten - stats0.BytesWritten)
	readBytes := int64(stats1.BytesRead - stats0.BytesRead)
	if wroteBytes == 0 || readBytes == 0 {
		t.Fatalf("window moved no NVMe bytes (wrote %d, read %d)", wroteBytes, readBytes)
	}
	if got := d.Edge(obs.EdgeHostNVMeWrite); got != wroteBytes {
		t.Errorf("ledger host_nvme_write = %d, array BytesWritten delta = %d", got, wroteBytes)
	}
	if got := d.Edge(obs.EdgeHostNVMeRead); got != readBytes {
		t.Errorf("ledger host_nvme_read = %d, array BytesRead delta = %d", got, readBytes)
	}

	// Purpose split: swapped activations and streamed optimizer state both
	// cross the NVMe edges under this config; nothing lands in params/grads
	// (those edges are compute<->host only).
	for _, p := range []obs.FlowPurpose{obs.FlowActivations, obs.FlowOptState} {
		if d.Get(obs.EdgeHostNVMeWrite, p) <= 0 {
			t.Errorf("no NVMe write bytes attributed to %s: %+v", p, d)
		}
	}
	if d.Get(obs.EdgeHostNVMeWrite, obs.FlowGrads) != 0 {
		t.Errorf("grads attributed to the NVMe write edge")
	}

	// The activation row reconciles against the engine's own offload
	// accounting (every offloaded blob is one NVMe object write).
	st := e.Stats()
	if got := units.Bytes(d.Get(obs.EdgeHostNVMeWrite, obs.FlowActivations)); got != st.ActBytesOffload {
		t.Errorf("ledger activation writes = %v, engine ActBytesOffload = %v", got, st.ActBytesOffload)
	}
}

// TestStepMetricsFlowDelta checks the per-step flow snapshot carried on
// StepMetrics: deltas reset each step and cover the expected purposes. A
// step's delta counts the write-back that retired during it, so the
// identity that holds exactly is over a window closed by a join: N
// steady-state steps move N times one step's bytes, and the per-step deltas
// add up to that give or take the write-back in flight at either end.
func TestStepMetricsFlowDelta(t *testing.T) {
	swap := map[int]Tier{0: SwapSSD}
	e := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap, Metrics: obs.NewRegistry()})
	trainK(t, e, 2)

	m := e.LastStepMetrics()
	if m.Flow.Total() <= 0 {
		t.Fatalf("step flow delta empty: %+v", m.Flow)
	}
	if m.Flow.Purpose(obs.FlowActivations) <= 0 {
		t.Errorf("step moved no activation bytes: %+v", m.Flow)
	}
	if m.Flow.Purpose(obs.FlowOptState) <= 0 {
		t.Errorf("step moved no optimizer-state bytes: %+v", m.Flow)
	}
	if m.Flow.Purpose(obs.FlowParams) <= 0 || m.Flow.Purpose(obs.FlowGrads) <= 0 {
		t.Errorf("step moved no param/grad wire bytes: %+v", m.Flow)
	}

	// One step's bytes, from a window of one step with a join at both ends.
	e.Stats()
	flows0 := e.Flows()
	trainK(t, e, 1)
	e.Stats()
	flows1 := e.Flows()
	perStep := flows1.Sub(flows0)

	const n = 3
	var sum obs.FlowSnapshot
	for s := 0; s < n; s++ {
		trainK(t, e, 1)
		d := e.LastStepMetrics().Flow
		for _, edge := range obs.FlowEdges() {
			for _, p := range obs.FlowPurposes() {
				sum.Cells[edge][p] += d.Get(edge, p)
				// Every cell but the trailing one is per-step exactly.
				trailing := edge == obs.EdgeHostNVMeWrite && p == obs.FlowOptState
				if got, want := d.Get(edge, p), perStep.Get(edge, p); !trailing && got != want {
					t.Errorf("step %d: %s/%s delta = %d, want %d every step", s, edge, p, got, want)
				}
			}
		}
	}
	e.Stats()
	window := e.Flows().Sub(flows1)
	for _, edge := range obs.FlowEdges() {
		for _, p := range obs.FlowPurposes() {
			if got, want := window.Get(edge, p), n*perStep.Get(edge, p); got != want {
				t.Errorf("%s/%s over %d joined steps = %d, want %d", edge, p, n, got, want)
			}
		}
	}
	// A step's delta runs from the previous step's return to its own, so the
	// n deltas hold the write-back that trailed into the window and lack what
	// trailed out of it: each at most one step's.
	writeBack := perStep.Get(obs.EdgeHostNVMeWrite, obs.FlowOptState)
	if off := sum.Get(obs.EdgeHostNVMeWrite, obs.FlowOptState) - n*writeBack; off < -writeBack || off > writeBack {
		t.Errorf("the per-step deltas are %d write-back bytes off the joined window, want within one step's %d", off, writeBack)
	}
}

// TestFlightRecorderAlwaysOn: the crash ring fills during normal training
// with no tracer and no registry configured.
func TestFlightRecorderAlwaysOn(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapSSD}})
	trainK(t, e, 4)

	recs := e.FlightRecords()
	if len(recs) != 4 {
		t.Fatalf("flight ring has %d records, want 4", len(recs))
	}
	cfg := miniConfig()
	for i, r := range recs {
		if r.Step != i+1 {
			t.Errorf("record %d: step %d, want %d", i, r.Step, i+1)
		}
		if r.Wall <= 0 || r.Forward <= 0 || r.Backward <= 0 {
			t.Errorf("record %d has non-positive stage times: %+v", i, r)
		}
		if r.Tokens != cfg.Batch*cfg.Seq {
			t.Errorf("record %d tokens = %d, want %d", i, r.Tokens, cfg.Batch*cfg.Seq)
		}
		if r.Flow.Total() <= 0 {
			t.Errorf("record %d has empty flow delta", i)
		}
	}
}

// TestStageHistogramsPopulated: with a registry configured, the step
// latency histograms publish quantiles into the snapshot.
func TestStageHistogramsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapSSD}, Metrics: reg})
	trainK(t, e, 3)

	snap := reg.Snapshot()
	for _, name := range []string{"engine.step_wall_ns", "engine.forward_ns", "engine.backward_ns",
		"nvme.read_ns", "nvme.write_ns"} {
		if got := snap[name+".count"]; got <= 0 {
			t.Errorf("%s.count = %v, want > 0", name, got)
		}
		if p50, p99 := snap[name+".p50"], snap[name+".p99"]; p50 <= 0 || p99 < p50 {
			t.Errorf("%s quantiles inconsistent: p50=%v p99=%v", name, p50, p99)
		}
	}
	if got := snap["engine.step_wall_ns.count"]; got != 3 {
		t.Errorf("step_wall count = %v, want 3", got)
	}
	// Flow gauges mirror the cumulative ledger as of the step's return: equal
	// on an edge nothing trails on, and behind the ledger by at most the
	// write-back that was still in flight on the NVMe write edge.
	flows := e.Flows()
	if got := snap["flow.codec_encode_bytes"]; got != float64(flows.Edge(obs.EdgeCodecEncode)) {
		t.Errorf("flow gauge %v != ledger %v", got, flows.Edge(obs.EdgeCodecEncode))
	}
	if got := snap["flow.host_nvme_write_bytes"]; got <= 0 || got > float64(flows.Edge(obs.EdgeHostNVMeWrite)) {
		t.Errorf("flow gauge %v, ledger %v", got, flows.Edge(obs.EdgeHostNVMeWrite))
	}
}
