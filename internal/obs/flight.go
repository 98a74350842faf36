package obs

import (
	"sync"
	"time"
)

// FlightRecorder keeps the last K steps' telemetry — timing, stall
// counts, and the step's flow-ledger delta — in a bounded ring so a
// postmortem (SIGQUIT, panic, engine error) can dump recent history
// without the process having opted into full tracing. Recording copies a
// value into a preallocated slot: no allocation, safe on the step path.
//
// A nil *FlightRecorder is a valid disabled recorder.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []StepRecord
	next uint64
}

// StepRecord is the one description of an optimizer step (one TrainStep,
// or one TrainStepAccum across all its micro-batches): the engine builds it
// once per step and the same value is the flight ring's entry, the engine's
// LastStepMetrics and the source of the per-step /metrics refresh.
type StepRecord struct {
	// Step is the engine's own step ordinal (Stats.Steps): strictly
	// increasing, counting skipped steps — unlike the optimizer's step, which
	// a loss-scale overflow or a checkpoint load rewinds.
	Step int
	// Start and End are offsets on the engine tracer's timeline (zero when
	// untraced) so a dump can join records to spans.
	Start, End time.Duration
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
	// wait. Disjoint from OffloadStalls — this is the read direction, the
	// signal postmortems key on.
	FetchStalls    int
	FetchStallWait time.Duration
	// EffectiveDepth is the activation I/O window in force this step: the
	// resolved static depth (Config.PipelineDepth or the default), never 0.
	EffectiveDepth int
	// Sched is the NVMe transfer scheduler's per-class step delta:
	// dispatched stride items, their summed queue wait, and the cumulative
	// queue-depth peak, indexed per nvme class / SchedClassNames.
	Sched SchedSample
	// Flow is the byte-flow ledger delta over this step's wall time: bytes
	// moved per (edge, purpose) cell (see FlowLedger). Like Sched and the
	// registry's NVMe write bandwidth it counts the write-back that retired
	// during the step — the previous step's tail in, this step's out.
	Flow FlowSnapshot
	// PrefetchedReads counts the state reads the optimizer pipeline's
	// read-ahead stage issued this step.
	PrefetchedReads int
}

// AdamParamsPerSec is the step's measured CPU-optimizer throughput
// (0 when no optimizer work ran).
func (r StepRecord) AdamParamsPerSec() float64 {
	if r.AdamBusy <= 0 {
		return 0
	}
	return float64(r.AdamParams) / r.AdamBusy.Seconds()
}

// DefaultFlightDepth is the ring size NewFlightRecorder uses for
// depth <= 0: enough recent steps to see a pipeline wedge develop.
const DefaultFlightDepth = 32

// NewFlightRecorder creates a recorder retaining the last depth steps.
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &FlightRecorder{buf: make([]StepRecord, depth)}
}

// Record stores one step's record, evicting the oldest when full.
func (f *FlightRecorder) Record(r StepRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.next%uint64(len(f.buf))] = r
	f.next++
	f.mu.Unlock()
}

// Last returns the newest record (the zero value before the first).
func (f *FlightRecorder) Last() StepRecord {
	if f == nil {
		return StepRecord{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next == 0 {
		return StepRecord{}
	}
	return f.buf[(f.next-1)%uint64(len(f.buf))]
}

// Records returns the retained step records, oldest first (a copy).
func (f *FlightRecorder) Records() []StepRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	capacity := uint64(len(f.buf))
	var out []StepRecord
	if n <= capacity {
		out = append(out, f.buf[:n]...)
	} else {
		at := n % capacity
		out = append(out, f.buf[at:]...)
		out = append(out, f.buf[:at]...)
	}
	return out
}

// Len reports how many records are retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := f.next; n < uint64(len(f.buf)) {
		return int(n)
	}
	return len(f.buf)
}
