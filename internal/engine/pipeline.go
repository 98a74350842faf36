package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ratel/internal/memctl"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/units"
)

// This file is the write-behind half of the full-duplex activation I/O
// pipeline (§IV-C/§IV-D, Fig. 4): forward-pass SSD offloads are encoded
// into ring-arena slots and drained by persistent writer goroutines while
// the compute loop moves on to the next block. The window is bounded two
// ways — by the ring's slot tokens (at most depth blobs in flight) and by
// host-pool reservations (each queued blob pins its staging footprint until
// the NVMe write retires). A full window stalls the compute loop, and the
// stall is recorded on obs.LaneStall. All in-flight writes join a strict
// barrier at the forward/backward boundary and on every failure path, so
// every error surfaces before the step's result is reported and no buffer
// or reservation outlives its step.

// DefaultPipelineDepth is the activation I/O window used when
// Config.PipelineDepth is zero: up to 2 blobs in flight per direction
// (write-behind in forward, read-ahead in backward).
const DefaultPipelineDepth = 2

// EffectiveDepth reports the activation I/O window in force: the resolved
// static depth (Config.PipelineDepth or the default; 0 = synchronous).
func (e *Engine) EffectiveDepth() int { return e.depth }

// offloadJob is one block's activation blob on its way to the NVMe array.
// The blob is an arena slot buffer: the writer owns it (and the slot token)
// until the Put returns, then releases the reservation and returns the
// token so the slot can be re-encoded.
type offloadJob struct {
	slot  int
	key   string
	label string // precomputed write-span label
	blob  []byte
	res   *memctl.Reservation
}

// offloadPipeline drains offloadJobs onto the NVMe array. Writer goroutines
// are spawned once at engine construction and live until Close; per-step
// state (outstanding jobs, stall accounting) belongs to the engine's step
// goroutine. A nil *offloadPipeline is the synchronous configuration: every
// method is nil-safe and a no-op.
type offloadPipeline struct {
	array  *nvme.Array
	tracer *obs.Tracer

	// jobs is the per-step offload queue. Its capacity equals the slot
	// count, and submissions are bounded by slot tokens, so a send never
	// blocks; flow control happens at token acquisition, where the stall is
	// observable, not silently inside the channel.
	jobs chan offloadJob
	// results carries one completion per submitted job. Its capacity is the
	// maximum number of offloads in a barrier window (one per model block),
	// NOT the slot count: the step goroutine only drains results at the
	// barrier or under pool backpressure, so a smaller buffer would block a
	// writer mid-step — and a blocked writer strands queued jobs that still
	// hold their slot tokens, deadlocking acquireSlot against the writer.
	results chan error
	// slotTok holds one token per arena slot. A slot's token is absent
	// exactly while a write from that slot is in flight; acquireSlot blocks
	// (and records the stall) until the writer returns it.
	slotTok []chan struct{}
	// hasErr is the fail-fast flag: writers set it so the forward loop can
	// stop encoding before the barrier formally surfaces the error.
	hasErr   atomic.Bool
	stopOnce sync.Once

	// Step-local accounting, owned by the engine's step goroutine.
	outstanding int
	stalls      int
	stallWait   time.Duration
	queuePeak   int
}

// newOffloadPipeline starts the writer goroutines. writers scales with the
// window: one writer serializes depth-1 exactly like the old inline path,
// two keep a deeper window's device throttle slots saturated. maxJobs is
// the most offloads a single barrier window can submit (the model's block
// count); it sizes results so a writer can always retire without waiting
// on the step goroutine.
func newOffloadPipeline(a *nvme.Array, tr *obs.Tracer, nslots, writers, maxJobs int) *offloadPipeline {
	if maxJobs < nslots {
		maxJobs = nslots
	}
	p := &offloadPipeline{
		array:   a,
		tracer:  tr,
		jobs:    make(chan offloadJob, nslots),
		results: make(chan error, maxJobs),
		slotTok: make([]chan struct{}, nslots),
	}
	for i := range p.slotTok {
		p.slotTok[i] = make(chan struct{}, 1)
		p.slotTok[i] <- struct{}{}
	}
	for w := 0; w < writers; w++ {
		go p.writer()
	}
	return p
}

// writer drains the offload queue until the pipeline is closed. Every job
// releases its reservation and returns its slot token no matter how the
// write went — the error travels on results, never by poisoning a buffer.
func (p *offloadPipeline) writer() {
	for j := range p.jobs {
		start := p.tracer.Now()
		// Write-behind is the least urgent traffic class: a whole
		// forward+backward separates the Put from the blob's next read.
		err := p.array.PutClass(j.key, j.blob, nvme.ClassWriteBehind)
		p.tracer.RecordSpan(obs.LaneOffload, j.label, start, p.tracer.Now())
		j.res.Release()
		p.slotTok[j.slot] <- struct{}{}
		if err != nil {
			p.hasErr.Store(true)
		}
		p.results <- err
	}
}

// close stops the writer goroutines. Idempotent; in-flight jobs finish
// first (the channel drains before the workers exit their range loop).
func (p *offloadPipeline) close() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.jobs) })
}

// errored reports the fail-fast flag: some in-flight write has already
// failed, so the forward loop should stop feeding the window and let the
// barrier surface the error.
func (p *offloadPipeline) errored() bool { return p != nil && p.hasErr.Load() }

// acquireSlot takes slot's token, blocking while a previous write from the
// same ring slot is still in flight. A blocked acquisition is the window's
// flow control working; the wait is recorded on obs.LaneStall and counted
// for StepMetrics.
func (p *offloadPipeline) acquireSlot(slot int, stallLabel string) {
	select {
	case <-p.slotTok[slot]:
		return
	default:
	}
	start := time.Now()
	tstart := p.tracer.Now()
	<-p.slotTok[slot]
	p.tracer.RecordSpan(obs.LaneStall, stallLabel, tstart, p.tracer.Now())
	p.stalls++
	p.stallWait += time.Since(start)
}

// releaseSlot returns a token taken by acquireSlot without submitting a
// write — the encode-failure path.
func (p *offloadPipeline) releaseSlot(slot int) {
	p.slotTok[slot] <- struct{}{}
}

// submit queues one blob for write-behind. The caller must hold the job's
// slot token (acquireSlot); the send never blocks because outstanding jobs
// are bounded by the token count, which equals the queue capacity.
func (p *offloadPipeline) submit(j offloadJob) {
	p.jobs <- j
	p.outstanding++
	if l := len(p.jobs); l > p.queuePeak {
		p.queuePeak = l
	}
	// Hand the CPU to a writer right away. The compute loop never blocks
	// between submissions, so on a fully loaded host (GOMAXPROCS=1) a woken
	// writer otherwise waits for the ~10ms async-preemption tick before its
	// first device op — long enough to push the whole write train past the
	// end of forward compute. The writer parks on the device throttle almost
	// immediately, returning the CPU to compute.
	runtime.Gosched()
}

// waitOne blocks until any in-flight write retires and returns its error —
// the reservation-backpressure primitive: when the host pool is full, the
// forward loop waits for one queued blob's staging footprint to be
// released before retrying.
func (p *offloadPipeline) waitOne() error {
	err := <-p.results
	p.outstanding--
	return err
}

// barrier joins every in-flight write: it blocks until the queue is empty
// and returns all their errors joined. This is the strict step barrier —
// runBatch calls it at the forward/backward boundary and on every failure
// path, so no write (and no error) outlives its step. Idempotent: with
// nothing outstanding it returns nil immediately.
func (p *offloadPipeline) barrier() error {
	if p == nil {
		return nil
	}
	var joined error
	for p.outstanding > 0 {
		if err := p.waitOne(); err != nil {
			joined = errors.Join(joined, err)
		}
	}
	p.hasErr.Store(false)
	return joined
}

// resetStepCounters zeroes the per-step stall accounting; TrainStep and
// TrainStepAccum call it once per optimizer step.
func (p *offloadPipeline) resetStepCounters() {
	if p == nil {
		return
	}
	p.stalls = 0
	p.stallWait = 0
	p.queuePeak = 0
}

// freeSlots counts available slot tokens (all of them, between steps — the
// invariant the fault-injection tests pin).
func (p *offloadPipeline) freeSlots() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, tok := range p.slotTok {
		n += len(tok)
	}
	return n
}

// reserveStaged reserves a queued blob's host staging footprint, treating a
// full pool as backpressure rather than failure while writes are in flight:
// each retired write releases its reservation, so waiting for one and
// retrying makes progress. Only when nothing is in flight (or the error is
// not an OOM) does the failure surface — the same hard-OOM semantics as the
// synchronous path.
func (e *Engine) reserveStaged(n int, stallLabel string) (*memctl.Reservation, error) {
	for {
		res, err := e.hostPool.Reserve(units.Bytes(n))
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, memctl.ErrOOM) || e.pipe == nil || e.pipe.outstanding == 0 {
			return nil, err
		}
		start := time.Now()
		tstart := e.tracer.Now()
		werr := e.pipe.waitOne()
		e.tracer.RecordSpan(obs.LaneStall, stallLabel, tstart, e.tracer.Now())
		e.pipe.stalls++
		e.pipe.stallWait += time.Since(start)
		if werr != nil {
			return nil, werr
		}
	}
}
