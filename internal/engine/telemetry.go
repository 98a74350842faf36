package engine

import (
	"fmt"
	"time"

	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/tensor/pool"
	"ratel/internal/units"
)

// This file is the engine's observability wiring: per-lane wall-clock
// spans (the live counterpart of the simulator's Gantt timeline) and a
// per-step metrics snapshot exported through an obs.Registry. Both are
// optional and nil-disabled; the span path is allocation-free because
// every label below is precomputed at construction.

// blockLabels precomputes the per-block span names so the training hot
// path never builds strings.
type blockLabels struct {
	fwd        string // "blockN/fwd"           lane gpu
	bwd        string // "blockN/bwd"           lane gpu
	recompute  string // "blockN/recompute"     lane gpu
	offload    string // "blockN/act-offload"   lane offload (SSD tier)
	pin        string // "blockN/act-pin"       lane offload (host tier)
	prefetch   string // "blockN/act-prefetch"  lane prefetch
	write      string // "blockN/act-write"     lane offload (async Put wall)
	stall      string // "blockN/offload-stall" lane stall (window full)
	fetchStall string // "blockN/fetch-stall"   lane stall (read-ahead missed)
	actKey     string // "act/blockN"           NVMe object key, not a span
}

func makeBlockLabels(layers int) []blockLabels {
	out := make([]blockLabels, layers)
	for i := range out {
		p := fmt.Sprintf("block%d", i)
		out[i] = blockLabels{
			fwd:        p + "/fwd",
			bwd:        p + "/bwd",
			recompute:  p + "/recompute",
			offload:    p + "/act-offload",
			pin:        p + "/act-pin",
			prefetch:   p + "/act-prefetch",
			write:      p + "/act-write",
			stall:      p + "/offload-stall",
			fetchStall: p + "/fetch-stall",
			actKey:     actKey(i),
		}
	}
	return out
}

// Fixed span labels for the non-block stages.
const (
	labelEmbedFwd = "embed/fwd"
	labelEmbedBwd = "embed/bwd"
	labelHeadFwd  = "head/fwd"
	labelHeadBwd  = "head/bwd"
	labelLoss     = "loss"
	labelStep     = "step"
	labelFwdEnd   = "forward-end"
	labelBwdEnd   = "backward-end"
)

// StepMetrics is the one description of a step, obs.StepRecord, under the
// name the benchmark harness and older callers use.
type StepMetrics = obs.StepRecord

// LastStepMetrics returns the most recent step's record — the flight ring's
// newest entry (zero value before the first step).
func (e *Engine) LastStepMetrics() StepMetrics { return e.flight.Last() }

// metric is one /metrics instrument: its exported name, its kind, and the
// accessor noteStep refreshes it from (nil: something else feeds it). An
// accessor reads only what the Engine keeps between steps — the step record,
// the ssd/prevSSD snapshots, prevFlow (the cumulative ledger once noteStep
// has folded the step out of it), the atomics — so the refresh loop hands it
// nothing that could escape.
type metric struct {
	name string
	kind func(r *obs.Registry, name string) any
	get  func(e *Engine) float64
}

// A row's kind is the registry constructor that makes its handle — once, at
// New, so per-step updates are plain atomic stores; with Config.Metrics nil
// the handles are detached no-ops (see obs.Registry). The handle's type says
// what noteStep does with the row's value: a counter adds it to the running
// total, a gauge replaces the last value, a histogram records one sample.
func counter(r *obs.Registry, name string) any   { return r.Counter(name) }
func gauge(r *obs.Registry, name string) any     { return r.Gauge(name) }
func histogram(r *obs.Registry, name string) any { return r.Histogram(name) }

// The three histograms something other than noteStep feeds sit at fixed rows
// so New can hand them to their feeders: the array (NVMe object transfer
// times, via SetObservers) and the worker pool (job latencies).
const (
	rowNVMeReadNS = iota
	rowNVMeWriteNS
	rowPoolJobNS
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// bytesPerSec is the NVMe bandwidth a byte delta over the step's wall is.
func bytesPerSec(delta units.Bytes, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(units.BytesPerSecond(float64(delta) / wall.Seconds()))
}

// metrics is the engine's whole exported metric surface, said once: New
// registers every row, noteStep refreshes every row with an accessor, and
// testdata/metrics.golden pins the names.
var metrics = [...]metric{
	// Latency histograms (log2-bucketed, nanosecond samples).
	rowNVMeReadNS:  {"nvme.read_ns", histogram, nil},
	rowNVMeWriteNS: {"nvme.write_ns", histogram, nil},
	rowPoolJobNS:   {"pool.job_ns", histogram, nil},
	{"engine.step_wall_ns", histogram, func(e *Engine) float64 { return float64(e.step.Wall) }},
	{"engine.forward_ns", histogram, func(e *Engine) float64 { return float64(e.step.Forward) }},
	{"engine.backward_ns", histogram, func(e *Engine) float64 { return float64(e.step.Backward) }},
	{"engine.optimizer_drain_ns", histogram, func(e *Engine) float64 { return float64(e.step.OptimizerDrain) }},

	{"engine.steps", counter, func(*Engine) float64 { return 1 }},
	{"engine.tokens", counter, func(e *Engine) float64 { return float64(e.step.Tokens) }},
	{"engine.tokens_per_sec", gauge, func(e *Engine) float64 { return e.step.TokensPerSec }},
	{"engine.forward_ms", gauge, func(e *Engine) float64 { return ms(e.step.Forward) }},
	{"engine.backward_ms", gauge, func(e *Engine) float64 { return ms(e.step.Backward) }},
	{"engine.optimizer_drain_ms", gauge, func(e *Engine) float64 { return ms(e.step.OptimizerDrain) }},
	{"engine.step_ms", gauge, func(e *Engine) float64 { return ms(e.step.Wall) }},
	{"engine.adam_params_per_sec", gauge, func(e *Engine) float64 { return e.step.AdamParamsPerSec() }},

	{"engine.act_offload_bytes", gauge, func(e *Engine) float64 { return float64(e.stats.ActBytesOffload) }},
	{"engine.act_host_bytes", gauge, func(e *Engine) float64 { return float64(e.stats.ActBytesHost) }},
	{"engine.act_fetched_bytes", gauge, func(e *Engine) float64 { return float64(e.stats.ActBytesFetched) }},
	{"engine.act_resident_bytes", gauge, func(e *Engine) float64 { return float64(e.win.resident) }},
	{"engine.recomputed_blocks", gauge, func(e *Engine) float64 { return float64(e.stats.RecomputedBlocks) }},

	// Pipeline flow-control health: cumulative stalls, the last step's
	// summed stall wait and offload-queue peak, and (below) the NVMe array's
	// per-direction in-flight high-water marks. A well-planned window shows
	// stalls flat at zero while the in-flight peaks sit at the queue depth.
	{"engine.offload_stalls", counter, func(e *Engine) float64 { return float64(e.step.OffloadStalls) }},
	{"engine.offload_stall_ms", gauge, func(e *Engine) float64 { return ms(e.step.OffloadStallWait) }},
	{"engine.offload_queue_peak", gauge, func(e *Engine) float64 { return float64(e.step.OffloadQueuePeak) }},

	// Read-ahead health: cumulative fetch stalls and the last step's summed
	// fetch wait.
	{"engine.fetch_stalls", counter, func(e *Engine) float64 { return float64(e.step.FetchStalls) }},
	{"engine.fetch_stall_ms", gauge, func(e *Engine) float64 { return ms(e.step.FetchStallWait) }},

	// NVMe transfer-scheduler health per lane direction: last step's summed
	// queue wait and the cumulative queue-depth peak.
	{"nvme.sched_read_wait_ms", gauge, func(e *Engine) float64 { return ms(e.step.Sched[obs.SchedRead].Wait) }},
	{"nvme.sched_read_queue_peak", gauge, func(e *Engine) float64 { return float64(e.step.Sched[obs.SchedRead].QueuePeak) }},
	{"nvme.sched_write_wait_ms", gauge, func(e *Engine) float64 { return ms(e.step.Sched[obs.SchedWrite].Wait) }},
	{"nvme.sched_write_queue_peak", gauge, func(e *Engine) float64 { return float64(e.step.Sched[obs.SchedWrite].QueuePeak) }},

	// Group updates the optimizer pipeline read ahead last step (each its
	// pieces' reads), and the state pieces — not groups, not bytes — whose
	// write-back the stage had not yet waited on when it returned.
	{"engine.opt_prefetched_reads", gauge, func(e *Engine) float64 { return float64(e.step.PrefetchedReads) }},
	{"engine.opt_writeback_inflight", gauge, func(e *Engine) float64 {
		live, _ := e.states.Buffered()
		return float64(live)
	}},
	// The optimizer state the window's resident set holds, which steps
	// neither read nor write.
	{"opt.resident_bytes", gauge, func(e *Engine) float64 { return float64(e.states.ResidentBytes()) }},

	{"nvme.read_bytes", gauge, func(e *Engine) float64 { return float64(e.ssd.BytesRead) }},
	{"nvme.write_bytes", gauge, func(e *Engine) float64 { return float64(e.ssd.BytesWritten) }},
	{"nvme.read_bytes_per_sec", gauge, func(e *Engine) float64 {
		return bytesPerSec(e.ssd.BytesRead-e.prevSSD.BytesRead, e.step.Wall)
	}},
	{"nvme.write_bytes_per_sec", gauge, func(e *Engine) float64 {
		return bytesPerSec(e.ssd.BytesWritten-e.prevSSD.BytesWritten, e.step.Wall)
	}},
	{"nvme.read_ops", gauge, func(e *Engine) float64 { return float64(e.ssd.ReadOps) }},
	{"nvme.write_ops", gauge, func(e *Engine) float64 { return float64(e.ssd.WriteOps) }},
	{"nvme.reads_in_flight_peak", gauge, func(e *Engine) float64 { return float64(e.ssd.PeakReadsInFlight) }},
	{"nvme.writes_in_flight_peak", gauge, func(e *Engine) float64 { return float64(e.ssd.PeakWritesInFlight) }},

	{"pool.jobs", gauge, func(*Engine) float64 { return float64(pool.DefaultStats().Jobs) }},
	{"pool.inline_runs", gauge, func(*Engine) float64 { return float64(pool.DefaultStats().InlineRuns) }},
	{"pool.submitter_chunks", gauge, func(*Engine) float64 { return float64(pool.DefaultStats().SubmitterChunks) }},
	{"pool.worker_chunks", gauge, func(*Engine) float64 { return float64(pool.DefaultStats().WorkerChunks) }},
	{"pool.stolen_chunks", gauge, func(*Engine) float64 { return float64(pool.DefaultStats().StolenChunks) }},

	// Buffer-reuse health: every blob buffer is allocated once, so a steady
	// state shows the reuse count climbing by a constant per step; and the
	// step's working set (stepArena + blockArena): what it holds, and the
	// high-water mark of the last micro-batch inside it.
	{"engine.blob_reuses", gauge, func(e *Engine) float64 { return float64(e.arena.blobReuses.Load()) }},
	{"engine.step_arena_bytes", gauge, func(e *Engine) float64 { return float64(e.stepArena.Cap() + e.blockArena.Cap()) }},
	{"engine.step_arena_peak_bytes", gauge, func(e *Engine) float64 { return float64(e.stepArena.Peak() + e.blockArena.Peak()) }},

	// Byte-flow gauges: the ledger's cumulative per-edge and per-purpose
	// totals, all from the one snapshot noteStep took.
	{"flow.compute_host_bytes", gauge, func(e *Engine) float64 { return float64(e.prevFlow.Edge(obs.EdgeComputeHost)) }},
	{"flow.host_nvme_read_bytes", gauge, func(e *Engine) float64 { return float64(e.prevFlow.Edge(obs.EdgeHostNVMeRead)) }},
	{"flow.host_nvme_write_bytes", gauge, func(e *Engine) float64 { return float64(e.prevFlow.Edge(obs.EdgeHostNVMeWrite)) }},
	{"flow.codec_encode_bytes", gauge, func(e *Engine) float64 { return float64(e.prevFlow.Edge(obs.EdgeCodecEncode)) }},
	{"flow.codec_decode_bytes", gauge, func(e *Engine) float64 { return float64(e.prevFlow.Edge(obs.EdgeCodecDecode)) }},
	{"flow.activations_bytes", gauge, func(e *Engine) float64 { return float64(e.prevFlow.Purpose(obs.FlowActivations)) }},
	{"flow.params_bytes", gauge, func(e *Engine) float64 { return float64(e.prevFlow.Purpose(obs.FlowParams)) }},
	{"flow.grads_bytes", gauge, func(e *Engine) float64 { return float64(e.prevFlow.Purpose(obs.FlowGrads)) }},
	{"flow.opt_state_bytes", gauge, func(e *Engine) float64 { return float64(e.prevFlow.Purpose(obs.FlowOptState)) }},
}

// noteStep finalizes one optimizer step's telemetry: it counts the step,
// builds its record once — the flight ring's entry, LastStepMetrics and the
// accessors' source are that one value — and refreshes the metrics registry.
func (e *Engine) noteStep(fwd, bwd, drain, wall time.Duration, tokens int) {
	e.stats.Steps++
	ordinal := e.stats.Steps
	kp, kb := e.optimizer.KernelStats()
	// Offsets are on the tracer timeline when available (so dumps join
	// records to spans).
	end := e.tracer.Now()
	m := &e.step
	*m = obs.StepRecord{
		Step:             ordinal,
		Start:            max(end-wall, 0),
		End:              end,
		Forward:          fwd,
		Backward:         bwd,
		OptimizerDrain:   drain,
		Wall:             wall,
		Tokens:           tokens,
		AdamParams:       kp - e.prevKernelParams,
		AdamBusy:         kb - e.prevKernelBusy,
		OffloadStalls:    e.win.offloadStall.n,
		OffloadStallWait: e.win.offloadStall.wait,
		OffloadQueuePeak: e.win.queuePeak,
		FetchStalls:      e.win.fetchStall.n,
		FetchStallWait:   e.win.fetchStall.wait,
		EffectiveDepth:   e.depth,
		PrefetchedReads:  e.submittedN,
	}
	e.prevKernelParams, e.prevKernelBusy = kp, kb
	if wall > 0 {
		m.TokensPerSec = float64(tokens) / wall.Seconds()
	}
	// Per-direction scheduler delta vs the previous step's cumulative
	// snapshot. QueuePeak is the direction's lifetime high-water mark — a
	// peak can't be differenced, and the lifetime value is what a postmortem
	// wants.
	sched := e.array.SchedStats()
	m.Sched[obs.SchedRead] = schedDelta(sched.Read, e.prevSched.Read)
	m.Sched[obs.SchedWrite] = schedDelta(sched.Write, e.prevSched.Write)
	e.prevSched = sched
	// Fold this step's byte flow out of the cumulative ledger; the delta
	// rides on the record, the running totals (prevFlow, from here on) feed
	// the flow gauges. All value types — nothing here allocates.
	flow := e.flows.Snapshot()
	m.Flow = flow.Sub(e.prevFlow)
	e.prevFlow = flow

	// Flight recorder: the last K steps' records survive for postmortem
	// dumps even when span tracing is off.
	e.flight.Record(*m)

	e.prevSSD, e.ssd = e.ssd, e.array.Stats()
	for i := range metrics {
		row := &metrics[i]
		if row.get == nil {
			continue
		}
		v := row.get(e)
		switch h := e.ins[i].(type) {
		case *obs.Counter:
			h.Add(int64(v))
		case *obs.Gauge:
			h.Set(v)
		case *obs.Histogram:
			h.Record(int64(v))
		}
	}
}

func schedDelta(cur, prev nvme.SchedLaneStats) obs.SchedDelta {
	return obs.SchedDelta{Dispatched: cur.Dispatched - prev.Dispatched, Wait: cur.Wait - prev.Wait, QueuePeak: cur.DepthPeak}
}

// Flows returns the engine's cumulative byte-flow ledger snapshot: bytes
// moved per (edge, purpose) cell since construction. The ledger is always
// on — it is a fixed atomic matrix, so accounting costs nothing visible.
func (e *Engine) Flows() obs.FlowSnapshot { return e.flows.Snapshot() }

// FlightRecords returns the flight recorder's retained step records,
// oldest first — the last K steps' timing, stall, and flow profiles kept
// for postmortem dumps (see trace.BuildFlightDump and WriteFlightDump).
func (e *Engine) FlightRecords() []obs.StepRecord { return e.flight.Records() }
