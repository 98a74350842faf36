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
	stall      string // "blockN/offload-stall" lane stall (window/pool full)
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

// StepMetrics is the wall-clock profile of one optimizer step (one
// TrainStep, or one TrainStepAccum across all its micro-batches).
type StepMetrics struct {
	// Step is the optimizer step this snapshot describes.
	Step int
	// Forward and Backward are the summed stage wall times; in a
	// gradient-accumulation step they span every micro-batch.
	Forward, Backward time.Duration
	// OptimizerDrain is the wall time after backward finished during which
	// the step still waited for Adam to be applied and P16 installed (not for
	// the write-back, which trails the step) — the live counterpart of the
	// simulator's OptimizerTail (zero when active gradient offloading fully
	// hides the optimizer, §IV-C).
	OptimizerDrain time.Duration
	// Wall is the full step duration.
	Wall time.Duration
	// Tokens is the number of tokens consumed; TokensPerSec = Tokens/Wall.
	Tokens       int
	TokensPerSec float64
	// AdamParams and AdamBusy are the CPU-optimizer kernel work done
	// during the step; their quotient is the live Adam params/s rate.
	AdamParams int64
	AdamBusy   time.Duration
	// OffloadStalls counts times this step's compute loop blocked on
	// pipeline flow control (write-behind window full, or host staging pool
	// waiting on an in-flight write); OffloadStallWait is the summed wait.
	// Zero means the pipeline fully hid the activation offload I/O.
	OffloadStalls    int
	OffloadStallWait time.Duration
	// OffloadQueuePeak is the deepest the offload queue got this step.
	OffloadQueuePeak int
	// FetchStalls counts backward read-ahead misses (the compute loop
	// blocked waiting for an activation fetch); FetchStallWait is the summed
	// wait. Disjoint from OffloadStalls — this is the read direction.
	FetchStalls    int
	FetchStallWait time.Duration
	// EffectiveDepth is the activation I/O window in force this step (the
	// resolved static depth; 0 = synchronous).
	EffectiveDepth int
	// Sched is the NVMe transfer scheduler's per-class step delta:
	// dispatched stride items, their summed queue wait, and the cumulative
	// queue-depth peak, indexed per nvme class / obs.SchedClassNames.
	Sched obs.SchedSample
	// Flow is the byte-flow ledger delta over this step's wall time: bytes
	// moved per (edge, purpose) cell (see obs.FlowLedger). Like Sched and the
	// registry's NVMe write bandwidth it counts the write-back that retired
	// during the step — the previous step's tail in, this step's out.
	Flow obs.FlowSnapshot
	// PrefetchedReads counts the state reads the optimizer pipeline's
	// read-ahead stage issued this step.
	PrefetchedReads int
}

// AdamParamsPerSec is the step's measured CPU-optimizer throughput
// (0 when no optimizer work ran).
func (m StepMetrics) AdamParamsPerSec() float64 {
	if m.AdamBusy <= 0 {
		return 0
	}
	return float64(m.AdamParams) / m.AdamBusy.Seconds()
}

// LastStepMetrics returns the most recent step's wall-clock profile
// (zero value before the first step).
func (e *Engine) LastStepMetrics() StepMetrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastStep
}

// Tracer returns the engine's span tracer (nil when tracing is off).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// instruments holds the engine's registry handles, created once at New so
// per-step updates are plain atomic stores. With Config.Metrics == nil the
// handles are detached no-ops (see obs.Registry).
type instruments struct {
	steps  *obs.Counter
	tokens *obs.Counter

	tokensPerSec *obs.Gauge
	forwardMS    *obs.Gauge
	backwardMS   *obs.Gauge
	drainMS      *obs.Gauge
	stepMS       *obs.Gauge
	adamRate     *obs.Gauge

	actOffload *obs.Gauge
	actHost    *obs.Gauge
	actFetched *obs.Gauge
	recomputed *obs.Gauge
	skipped    *obs.Gauge

	// Pipeline flow-control health: cumulative stalls, the last step's
	// summed stall wait and offload-queue peak, and the NVMe array's
	// per-direction in-flight high-water marks. A well-planned window shows
	// stalls flat at zero while the in-flight peaks sit at the queue depth.
	offloadStalls  *obs.Counter
	offloadStallMS *obs.Gauge
	offloadQueue   *obs.Gauge

	// Read-ahead health: cumulative fetch stalls, the last step's summed
	// fetch wait, and the pipeline depth in force.
	fetchStalls  *obs.Counter
	fetchStallMS *obs.Gauge
	pipelineEff  *obs.Gauge

	// NVMe transfer-scheduler per-class health: last step's summed queue
	// wait and the cumulative queue-depth peak, one pair per traffic class.
	schedFetchWaitMS        *obs.Gauge
	schedFetchQueuePeak     *obs.Gauge
	schedOptReadWaitMS      *obs.Gauge
	schedOptReadQueuePeak   *obs.Gauge
	schedWritebackWaitMS    *obs.Gauge
	schedWritebackQueuePk   *obs.Gauge
	schedWriteBehindWaitMS  *obs.Gauge
	schedWriteBehindQueuePk *obs.Gauge

	// State reads the optimizer pipeline's read-ahead stage issued last step,
	// and the groups whose write-back was still in flight when it returned.
	optPrefetchedReads, optWritebackLive *obs.Gauge

	nvmeReadBytes  *obs.Gauge
	nvmeWriteBytes *obs.Gauge
	nvmeReadBW     *obs.Gauge
	nvmeWriteBW    *obs.Gauge
	nvmeReadOps    *obs.Gauge
	nvmeWriteOps   *obs.Gauge
	nvmeReadPeak   *obs.Gauge
	nvmeWritePeak  *obs.Gauge

	poolJobs      *obs.Gauge
	poolInline    *obs.Gauge
	poolSubmitter *obs.Gauge
	poolWorker    *obs.Gauge
	poolStolen    *obs.Gauge

	// Buffer-reuse health: the arena's blob/ring revival counts. Every
	// buffer is allocated once, so a steady state shows both climbing by a
	// constant per step.
	blobReuses *obs.Gauge
	ringReuses *obs.Gauge

	// Latency histograms (log2-bucketed, nanosecond samples): per-stage
	// step latencies, NVMe object transfer times (fed by the array via
	// SetObservers), and pool job latencies (fed by the worker pool).
	stepWallNS *obs.Histogram
	forwardNS  *obs.Histogram
	backwardNS *obs.Histogram
	drainNS    *obs.Histogram
	nvmeReadNS *obs.Histogram
	nvmeWritNS *obs.Histogram
	poolJobNS  *obs.Histogram

	// Byte-flow gauges: the ledger's cumulative per-edge and per-purpose
	// totals, refreshed once per step from one snapshot.
	flowComputeHost *obs.Gauge
	flowNVMeRead    *obs.Gauge
	flowNVMeWrite   *obs.Gauge
	flowEncode      *obs.Gauge
	flowDecode      *obs.Gauge
	flowActs        *obs.Gauge
	flowParams      *obs.Gauge
	flowGrads       *obs.Gauge
	flowOptState    *obs.Gauge
}

func makeInstruments(r *obs.Registry) instruments {
	return instruments{
		steps:  r.Counter("engine.steps"),
		tokens: r.Counter("engine.tokens"),

		tokensPerSec: r.Gauge("engine.tokens_per_sec"),
		forwardMS:    r.Gauge("engine.forward_ms"),
		backwardMS:   r.Gauge("engine.backward_ms"),
		drainMS:      r.Gauge("engine.optimizer_drain_ms"),
		stepMS:       r.Gauge("engine.step_ms"),
		adamRate:     r.Gauge("engine.adam_params_per_sec"),

		actOffload: r.Gauge("engine.act_offload_bytes"),
		actHost:    r.Gauge("engine.act_host_bytes"),
		actFetched: r.Gauge("engine.act_fetched_bytes"),
		recomputed: r.Gauge("engine.recomputed_blocks"),
		skipped:    r.Gauge("engine.skipped_steps"),

		offloadStalls:  r.Counter("engine.offload_stalls"),
		offloadStallMS: r.Gauge("engine.offload_stall_ms"),
		offloadQueue:   r.Gauge("engine.offload_queue_peak"),

		fetchStalls:  r.Counter("engine.fetch_stalls"),
		fetchStallMS: r.Gauge("engine.fetch_stall_ms"),
		pipelineEff:  r.Gauge("engine.pipeline_depth_effective"),

		schedFetchWaitMS:        r.Gauge("nvme.sched_fetch_wait_ms"),
		schedFetchQueuePeak:     r.Gauge("nvme.sched_fetch_queue_peak"),
		schedOptReadWaitMS:      r.Gauge("nvme.sched_opt_read_wait_ms"),
		schedOptReadQueuePeak:   r.Gauge("nvme.sched_opt_read_queue_peak"),
		schedWritebackWaitMS:    r.Gauge("nvme.sched_writeback_wait_ms"),
		schedWritebackQueuePk:   r.Gauge("nvme.sched_writeback_queue_peak"),
		schedWriteBehindWaitMS:  r.Gauge("nvme.sched_write_behind_wait_ms"),
		schedWriteBehindQueuePk: r.Gauge("nvme.sched_write_behind_queue_peak"),

		optPrefetchedReads: r.Gauge("engine.opt_prefetched_reads"),
		optWritebackLive:   r.Gauge("engine.opt_writeback_inflight"),

		nvmeReadBytes:  r.Gauge("nvme.read_bytes"),
		nvmeWriteBytes: r.Gauge("nvme.write_bytes"),
		nvmeReadBW:     r.Gauge("nvme.read_bytes_per_sec"),
		nvmeWriteBW:    r.Gauge("nvme.write_bytes_per_sec"),
		nvmeReadOps:    r.Gauge("nvme.read_ops"),
		nvmeWriteOps:   r.Gauge("nvme.write_ops"),
		nvmeReadPeak:   r.Gauge("nvme.reads_in_flight_peak"),
		nvmeWritePeak:  r.Gauge("nvme.writes_in_flight_peak"),

		poolJobs:      r.Gauge("pool.jobs"),
		poolInline:    r.Gauge("pool.inline_runs"),
		poolSubmitter: r.Gauge("pool.submitter_chunks"),
		poolWorker:    r.Gauge("pool.worker_chunks"),
		poolStolen:    r.Gauge("pool.stolen_chunks"),

		blobReuses: r.Gauge("engine.blob_reuses"),
		ringReuses: r.Gauge("engine.ring_reuses"),

		stepWallNS: r.Histogram("engine.step_wall_ns"),
		forwardNS:  r.Histogram("engine.forward_ns"),
		backwardNS: r.Histogram("engine.backward_ns"),
		drainNS:    r.Histogram("engine.optimizer_drain_ns"),
		nvmeReadNS: r.Histogram("nvme.read_ns"),
		nvmeWritNS: r.Histogram("nvme.write_ns"),
		poolJobNS:  r.Histogram("pool.job_ns"),

		flowComputeHost: r.Gauge("flow.compute_host_bytes"),
		flowNVMeRead:    r.Gauge("flow.host_nvme_read_bytes"),
		flowNVMeWrite:   r.Gauge("flow.host_nvme_write_bytes"),
		flowEncode:      r.Gauge("flow.codec_encode_bytes"),
		flowDecode:      r.Gauge("flow.codec_decode_bytes"),
		flowActs:        r.Gauge("flow.activations_bytes"),
		flowParams:      r.Gauge("flow.params_bytes"),
		flowGrads:       r.Gauge("flow.grads_bytes"),
		flowOptState:    r.Gauge("flow.opt_state_bytes"),
	}
}

// noteStep finalizes one optimizer step's telemetry: it snapshots the
// step profile for LastStepMetrics and refreshes the metrics registry.
func (e *Engine) noteStep(fwd, bwd, drain, wall time.Duration, tokens int) {
	kp, kb := e.optimizer.KernelStats()
	m := StepMetrics{
		Step:           e.optimizer.Step(),
		Forward:        fwd,
		Backward:       bwd,
		OptimizerDrain: drain,
		Wall:           wall,
		Tokens:         tokens,
		AdamParams:     kp - e.prevKernelParams,
		AdamBusy:       kb - e.prevKernelBusy,
	}
	if wall > 0 {
		m.TokensPerSec = float64(tokens) / wall.Seconds()
	}
	m.OffloadStalls, m.OffloadStallWait = e.win.offload.n, e.win.offload.wait
	m.OffloadQueuePeak = e.win.queuePeak
	m.FetchStalls, m.FetchStallWait = e.win.fetch.n, e.win.fetch.wait
	m.EffectiveDepth = e.depth
	// Per-class scheduler delta vs the previous step's cumulative snapshot.
	// QueuePeak is the class's lifetime high-water mark — a peak can't be
	// differenced, and the lifetime value is what a postmortem wants.
	sched := e.array.SchedStats()
	for c := range sched.PerClass {
		cur, prev := sched.PerClass[c], e.prevSched.PerClass[c]
		m.Sched[c] = obs.SchedClassDelta{
			Dispatched: cur.Dispatched - prev.Dispatched,
			Wait:       cur.Wait - prev.Wait,
			QueuePeak:  cur.DepthPeak,
		}
	}
	e.prevSched = sched
	m.PrefetchedReads = e.submittedN
	e.prevKernelParams, e.prevKernelBusy = kp, kb

	// Fold this step's byte flow out of the cumulative ledger; the delta
	// rides on StepMetrics and the flight record, the running totals on
	// the flow gauges below. All value types — nothing here allocates.
	flow := e.flows.Snapshot()
	m.Flow = flow.Sub(e.prevFlow)
	e.prevFlow = flow

	e.mu.Lock()
	e.lastStep = m
	e.mu.Unlock()

	// Flight recorder: the last K steps' profiles survive for postmortem
	// dumps even when span tracing is off. Offsets are on the tracer
	// timeline when available (so dumps join records to spans).
	endOff := e.tracer.Now()
	startOff := endOff - wall
	if startOff < 0 {
		startOff = 0
	}
	e.flight.Record(obs.StepRecord{
		Step:           m.Step,
		Start:          startOff,
		End:            endOff,
		Wall:           wall,
		Forward:        fwd,
		Backward:       bwd,
		OptimizerDrain: drain,
		Tokens:         tokens,
		Stalls:         int64(m.OffloadStalls),
		StallWait:      m.OffloadStallWait,
		FetchStalls:    int64(m.FetchStalls),
		FetchStallWait: m.FetchStallWait,
		EffectiveDepth: m.EffectiveDepth,
		Sched:          m.Sched,
		Flow:           m.Flow,
	})

	ins := &e.ins
	ins.steps.Add(1)
	ins.tokens.Add(int64(tokens))
	ins.tokensPerSec.Set(m.TokensPerSec)
	ins.forwardMS.Set(float64(fwd) / float64(time.Millisecond))
	ins.backwardMS.Set(float64(bwd) / float64(time.Millisecond))
	ins.drainMS.Set(float64(drain) / float64(time.Millisecond))
	ins.stepMS.Set(float64(wall) / float64(time.Millisecond))
	ins.adamRate.Set(m.AdamParamsPerSec())

	ins.actOffload.Set(float64(e.actOffload.Load()))
	ins.actHost.Set(float64(e.actHost.Load()))
	ins.actFetched.Set(float64(e.actFetched.Load()))
	ins.recomputed.Set(float64(e.recomputedN.Load()))
	e.mu.Lock()
	skipped := e.stats.SkippedSteps
	e.mu.Unlock()
	ins.skipped.Set(float64(skipped))

	ins.offloadStalls.Add(int64(m.OffloadStalls))
	ins.offloadStallMS.Set(float64(m.OffloadStallWait) / float64(time.Millisecond))
	ins.offloadQueue.Set(float64(m.OffloadQueuePeak))

	ins.fetchStalls.Add(int64(m.FetchStalls))
	ins.fetchStallMS.Set(float64(m.FetchStallWait) / float64(time.Millisecond))
	ins.pipelineEff.Set(float64(m.EffectiveDepth))

	ins.schedFetchWaitMS.Set(float64(m.Sched[nvme.ClassCriticalFetch].Wait) / float64(time.Millisecond))
	ins.schedFetchQueuePeak.Set(float64(m.Sched[nvme.ClassCriticalFetch].QueuePeak))
	ins.schedOptReadWaitMS.Set(float64(m.Sched[nvme.ClassOptRead].Wait) / float64(time.Millisecond))
	ins.schedOptReadQueuePeak.Set(float64(m.Sched[nvme.ClassOptRead].QueuePeak))
	ins.schedWritebackWaitMS.Set(float64(m.Sched[nvme.ClassWriteback].Wait) / float64(time.Millisecond))
	ins.schedWritebackQueuePk.Set(float64(m.Sched[nvme.ClassWriteback].QueuePeak))
	ins.schedWriteBehindWaitMS.Set(float64(m.Sched[nvme.ClassWriteBehind].Wait) / float64(time.Millisecond))
	ins.schedWriteBehindQueuePk.Set(float64(m.Sched[nvme.ClassWriteBehind].QueuePeak))

	ins.optPrefetchedReads.Set(float64(m.PrefetchedReads))
	if e.states != nil {
		live, _ := e.states.Buffered()
		ins.optWritebackLive.Set(float64(live))
	}

	ssd := e.array.Stats()
	ins.nvmeReadBytes.Set(float64(ssd.BytesRead))
	ins.nvmeWriteBytes.Set(float64(ssd.BytesWritten))
	ins.nvmeReadOps.Set(float64(ssd.ReadOps))
	ins.nvmeWriteOps.Set(float64(ssd.WriteOps))
	ins.nvmeReadPeak.Set(float64(ssd.PeakReadsInFlight))
	ins.nvmeWritePeak.Set(float64(ssd.PeakWritesInFlight))
	if wall > 0 {
		readDelta := ssd.BytesRead - e.prevSSD.BytesRead
		writeDelta := ssd.BytesWritten - e.prevSSD.BytesWritten
		ins.nvmeReadBW.Set(float64(units.BytesPerSecond(float64(readDelta) / wall.Seconds())))
		ins.nvmeWriteBW.Set(float64(units.BytesPerSecond(float64(writeDelta) / wall.Seconds())))
	}
	e.prevSSD = ssd

	ps := pool.DefaultStats()
	ins.poolJobs.Set(float64(ps.Jobs))
	ins.poolInline.Set(float64(ps.InlineRuns))
	ins.poolSubmitter.Set(float64(ps.SubmitterChunks))
	ins.poolWorker.Set(float64(ps.WorkerChunks))
	ins.poolStolen.Set(float64(ps.StolenChunks))

	ins.blobReuses.Set(float64(e.arena.blobReuses.Load()))
	ins.ringReuses.Set(float64(e.arena.ringReuses.Load()))

	ins.stepWallNS.RecordDuration(wall)
	ins.forwardNS.RecordDuration(fwd)
	ins.backwardNS.RecordDuration(bwd)
	ins.drainNS.RecordDuration(drain)

	ins.flowComputeHost.Set(float64(flow.Edge(obs.EdgeComputeHost)))
	ins.flowNVMeRead.Set(float64(flow.Edge(obs.EdgeHostNVMeRead)))
	ins.flowNVMeWrite.Set(float64(flow.Edge(obs.EdgeHostNVMeWrite)))
	ins.flowEncode.Set(float64(flow.Edge(obs.EdgeCodecEncode)))
	ins.flowDecode.Set(float64(flow.Edge(obs.EdgeCodecDecode)))
	ins.flowActs.Set(float64(flow.Purpose(obs.FlowActivations)))
	ins.flowParams.Set(float64(flow.Purpose(obs.FlowParams)))
	ins.flowGrads.Set(float64(flow.Purpose(obs.FlowGrads)))
	ins.flowOptState.Set(float64(flow.Purpose(obs.FlowOptState)))
}

// Flows returns the engine's cumulative byte-flow ledger snapshot: bytes
// moved per (edge, purpose) cell since construction. The ledger is always
// on — it is a fixed atomic matrix, so accounting costs nothing visible.
func (e *Engine) Flows() obs.FlowSnapshot { return e.flows.Snapshot() }

// FlightRecords returns the flight recorder's retained step records,
// oldest first — the last K steps' timing, stall, and flow profiles kept
// for postmortem dumps (see trace.WriteFlightJSON).
func (e *Engine) FlightRecords() []obs.StepRecord { return e.flight.Records() }
