// Package obs is the live engine's observability layer: a low-overhead
// wall-clock span tracer and a metrics registry. The simulator predicts
// what *should* overlap (package sim); this package records what actually
// did — per-lane wall-clock spans for GPU-side compute, activation
// prefetch/offload, NVMe reads and writes, and CPU Adam chunks — so
// simulated schedules can be validated against engine reality (the
// calibration report in cmd/ratelbench).
//
// Design constraints, in order:
//
//  1. A nil *Tracer is a valid disabled tracer: every method is nil-safe
//     and the disabled path costs one branch and zero allocations, so
//     instrumentation can stay unconditionally wired into hot paths.
//  2. A span closes by construction: the recording surface is Do, which
//     runs a function and records it as one span, Instant, a zero-length
//     marker, and Interval, both ends of an interval stamped elsewhere (an
//     NVMe transfer that finished on a dispatcher goroutine). No open span
//     value exists to leak on an error path.
//  3. The enabled record path is also allocation-free at steady state:
//     spans land in a preallocated ring buffer and label strings are
//     passed in (callers precompute them once), never built per span.
//  4. The buffer is a ring: tracing a long run keeps the most recent
//     spans rather than growing without bound; Recorded reports loss.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Lanes name the engine-side resources a span can occupy. They mirror the
// simulator's sim.ResourceID set where a counterpart exists (the
// calibration report joins on that mapping): LaneCompute plays the role of
// sim.GPUCompute (the mini engine computes on CPU, standing in for the
// CUDA engine), LaneAdam is sim.CPUAdam, and LaneNVMeRead/LaneNVMeWrite
// together are sim.SSDBus.
const (
	LaneCompute   = "gpu"        // forward/backward/recompute kernels
	LanePrefetch  = "prefetch"   // backward-stage activation prefetch pipeline
	LaneOffload   = "offload"    // forward-stage activation offload/pin
	LaneNVMeRead  = "nvme-read"  // NVMe array object reads
	LaneNVMeWrite = "nvme-write" // NVMe array object writes
	LaneAdam      = "cpu-adam"   // out-of-core optimizer chunk updates
	LaneStep      = "step"       // whole-iteration markers
	// LaneStall records time the compute loop spent blocked on pipeline flow
	// control: the write-behind window was full (every ring slot in flight)
	// or a read-ahead had not landed by its consume. Stall spans are
	// backpressure made visible — an empty lane means the pipeline fully hid
	// the activation I/O.
	LaneStall = "stall"
)

// Span is one recorded wall-clock interval on a lane. Times are offsets
// from the tracer's epoch (monotonic, see time.Since), so spans from
// concurrent goroutines share one timeline.
type Span struct {
	Lane  string
	Name  string
	Start time.Duration
	End   time.Duration
}

// Duration is the span's extent.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Tracer records spans into a fixed-capacity ring buffer. All methods are
// safe for concurrent use and safe on a nil receiver (disabled tracing).
type Tracer struct {
	epoch time.Time

	mu   sync.Mutex
	buf  []Span
	next uint64 // spans ever recorded; ring slot = next % cap
}

// DefaultCapacity is the ring size NewTracer uses for capacity <= 0:
// enough for hundreds of fully-traced mini-engine steps.
const DefaultCapacity = 1 << 16

// NewTracer creates an enabled tracer holding up to capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{epoch: time.Now(), buf: make([]Span, capacity)}
}

// Now is the current offset on the tracer's timeline (0 when disabled).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Do runs f and records it as one span on lane; on a nil tracer it only runs
// f. There is no open span to end, so every path out of f — an error return
// included — is recorded. f is only called, never stored, so neither it nor
// what it captures escapes. The lane and name strings are stored by
// reference; pass precomputed labels, not per-call concatenations, to keep
// the path allocation-free.
func (t *Tracer) Do(lane, name string, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Since(t.epoch)
	f()
	t.record(Span{Lane: lane, Name: name, Start: start, End: time.Since(t.epoch)})
}

// Interval records the span from start to end, two wall-clock stamps taken
// by the caller, on lane.
func (t *Tracer) Interval(lane, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.record(Span{Lane: lane, Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// Instant records a zero-duration marker (stage boundaries, step edges).
func (t *Tracer) Instant(lane, name string) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.record(Span{Lane: lane, Name: name, Start: now, End: now})
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.buf[t.next%uint64(len(t.buf))] = s
	t.next++
	t.mu.Unlock()
}

// Spans returns the retained spans sorted by start time (a copy).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	n := t.next
	capacity := uint64(len(t.buf))
	var out []Span
	if n <= capacity {
		out = append(out, t.buf[:n]...)
	} else {
		// Ring wrapped: oldest retained span is at slot n % cap.
		at := n % capacity
		out = append(out, t.buf[at:]...)
		out = append(out, t.buf[:at]...)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Recorded reports how many spans were ever recorded and how many fell out
// of the ring.
func (t *Tracer) Recorded() (total, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total = t.next
	if capacity := uint64(len(t.buf)); total > capacity {
		dropped = total - capacity
	}
	return total, dropped
}

// Reset discards all recorded spans; the epoch is unchanged so offsets
// before and after a Reset remain comparable.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next = 0
	t.mu.Unlock()
}
