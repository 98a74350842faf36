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

// StepRecord is one step's entry in the flight ring. Start/End are
// offsets on the engine tracer's timeline (or zero when untraced) so a
// dump can join records to spans.
type StepRecord struct {
	Step  int
	Start time.Duration
	End   time.Duration

	Wall           time.Duration
	Forward        time.Duration
	Backward       time.Duration
	OptimizerDrain time.Duration
	Tokens         int

	Stalls    int64         // pipeline stall events this step
	StallWait time.Duration // time spent in those stalls

	// FetchStalls / FetchStallWait isolate the read-ahead misses (backward
	// blocked on an activation fetch) from the write-behind backpressure
	// counted in Stalls — the signal postmortems key on.
	FetchStalls    int64
	FetchStallWait time.Duration

	// EffectiveDepth is the pipeline depth in force during the step: the
	// resolved static depth (Config.PipelineDepth or the default).
	EffectiveDepth int

	// Sched is the NVMe transfer scheduler's per-class activity this step
	// (zero when the array ran unscheduled or saw no queued traffic).
	Sched SchedSample

	Flow FlowSnapshot // ledger delta for this step
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
