package engine

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"ratel/internal/memctl"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/units"
)

// This file is the activation I/O window (§IV-C/§IV-D, Fig. 4): the one
// mechanism that moves block activations between the ring arena and the
// NVMe array, behind forward compute (write-behind) and ahead of backward
// compute (read-ahead). A job borrows a ring slot's blob buffer together
// with the slot's token; a persistent worker does the transfer, stores its
// outcome in the slot and returns the token. Taking a slot's token is
// therefore the join, in both directions: it blocks until the slot's
// transfer has retired and yields that transfer's error. Forward takes it to
// reuse the slot (a full window stalls there), backward takes it to consume
// the fetched blob (a late read-ahead stalls there), and barrier takes every
// token — at the forward/backward boundary and on every failure path — so no
// transfer, error, buffer or host-pool charge outlives its step. Stalls are
// recorded on obs.LaneStall and counted per direction.

// DefaultPipelineDepth is the activation I/O window used when
// Config.PipelineDepth is zero: up to 2 blobs in flight per direction
// (write-behind in forward, read-ahead in backward).
const DefaultPipelineDepth = 2

// EffectiveDepth reports the activation I/O window in force: the resolved
// static depth (Config.PipelineDepth or the default).
func (e *Engine) EffectiveDepth() int { return e.depth }

// ioJob is one block's activation blob on its way to the NVMe array or back
// (read). The blob is an arena slot buffer: the worker owns it, and the
// slot's token, until the transfer returns. staged is what a write charged
// the host pool for its blob, freed when the Put retires (0 for a read).
type ioJob struct {
	slot   int
	read   bool
	key    string
	label  string // precomputed transfer-span label
	blob   []byte
	staged units.Bytes
}

// stallCount is one direction's flow-control accounting for the step in
// progress: how often, and for how long, the step goroutine blocked on a
// slot token.
type stallCount struct {
	n    int
	wait time.Duration
}

// actWindow runs ioJobs against the NVMe array. Its workers are spawned once
// at engine construction and live until close; the per-step accounting
// belongs to the engine's step goroutine.
type actWindow struct {
	array  *nvme.Array
	host   *memctl.Pool
	tracer *obs.Tracer

	// jobs is the transfer queue. Its capacity equals the slot count, and a
	// submission needs the slot's token, so a send never blocks; flow control
	// happens at token acquisition, where the stall is observable.
	jobs chan ioJob
	// slotTok holds one token per arena slot; a slot's token is absent
	// exactly while a job (or the step goroutine) owns the slot. slotErr is
	// the outcome of the slot's last transfer, written by the worker before
	// it returns the token and taken by whoever takes the token next.
	slotTok []chan struct{}
	slotErr []error
	// syncIO is the oracleSyncIO test hook: every submit joins its own
	// transfer before returning.
	syncIO   bool
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Step-local accounting, owned by the engine's step goroutine. queuePeak
	// is the deepest write-behind backlog seen.
	offload, fetch stallCount
	queuePeak      int
}

// newActWindow starts one worker per in-flight transfer the window allows
// (depth): fewer would leave device bandwidth idle between blob boundaries.
func newActWindow(a *nvme.Array, host *memctl.Pool, tr *obs.Tracer, nslots, workers int) *actWindow {
	w := &actWindow{
		array:   a,
		host:    host,
		tracer:  tr,
		jobs:    make(chan ioJob, nslots),
		slotTok: make([]chan struct{}, nslots),
		slotErr: make([]error, nslots),
	}
	for i := range w.slotTok {
		w.slotTok[i] = make(chan struct{}, 1)
		w.slotTok[i] <- struct{}{}
	}
	w.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go w.worker()
	}
	return w
}

// worker runs transfers until the window is closed. Every job frees its
// staged bytes and then returns its slot token no matter how the transfer
// went — the error travels in slotErr, never by poisoning a buffer.
func (w *actWindow) worker() {
	defer w.wg.Done()
	for j := range w.jobs {
		start := w.tracer.Now()
		var err error
		if j.read {
			err = w.array.ReadInto(j.key, j.blob)
			w.tracer.RecordSpan(obs.LanePrefetch, j.label, start, w.tracer.Now())
		} else {
			// Write-behind is the least urgent traffic class: a whole
			// forward+backward separates the Put from the blob's next read.
			err = w.array.PutClass(j.key, j.blob, nvme.ClassWriteBehind)
			w.tracer.RecordSpan(obs.LaneOffload, j.label, start, w.tracer.Now())
		}
		w.slotErr[j.slot] = err
		w.host.Free(j.staged)
		w.slotTok[j.slot] <- struct{}{}
	}
}

// close stops the workers and waits for them to exit. Idempotent; nothing
// is in flight between steps, so there is nothing to drain first.
func (w *actWindow) close() {
	w.stopOnce.Do(func() { close(w.jobs) })
	w.wg.Wait()
}

// acquireSlot takes slot's token — the join: it blocks while the slot's
// transfer is in flight and returns that transfer's error (once; taking it
// clears it). The caller owns the slot until it gives the token up with
// submit or releaseSlot, whatever the error. A blocked acquisition is the
// window's flow control working; the wait is recorded on obs.LaneStall and
// counted in st, the caller's direction.
func (w *actWindow) acquireSlot(slot int, stallLabel string, st *stallCount) error {
	select {
	case <-w.slotTok[slot]:
	default:
		start := time.Now()
		tstart := w.tracer.Now()
		<-w.slotTok[slot]
		w.tracer.RecordSpan(obs.LaneStall, stallLabel, tstart, w.tracer.Now())
		st.n++
		st.wait += time.Since(start)
	}
	err := w.slotErr[slot]
	w.slotErr[slot] = nil
	return err
}

// releaseSlot returns a token taken by acquireSlot without starting a
// transfer: a consumed fetch, a finished join, or a failure path.
func (w *actWindow) releaseSlot(slot int) {
	w.slotTok[slot] <- struct{}{}
}

// submit queues one transfer. The caller must hold the job's slot token
// (acquireSlot) and hands it to the worker; the send never blocks because
// queued jobs are bounded by the token count, which equals the queue
// capacity.
func (w *actWindow) submit(j ioJob) {
	w.jobs <- j
	if l := len(w.jobs); !j.read && l > w.queuePeak {
		w.queuePeak = l
	}
	// Hand the CPU to a worker right away. The compute loop never blocks
	// between submissions, so on a fully loaded host (GOMAXPROCS=1) a woken
	// worker otherwise waits for the ~10ms async-preemption tick before its
	// first device op — long enough to push a whole write train past the end
	// of forward compute, or a read past its consume. The worker parks on
	// the device throttle almost immediately, returning the CPU to compute.
	runtime.Gosched()
	if w.syncIO {
		// Wait the transfer out; its error stays in the slot for the next
		// acquireSlot or barrier, exactly as for a pipelined transfer.
		w.slotTok[j.slot] <- <-w.slotTok[j.slot]
	}
}

// barrier joins every transfer in flight: it takes and returns every slot's
// token and returns the errors joined. This is the strict step barrier —
// runBatch calls it at the forward/backward boundary and on every failure
// path, holding no token itself. Idempotent: with nothing in flight it
// returns nil without blocking.
func (w *actWindow) barrier() error {
	var joined error
	for slot, tok := range w.slotTok {
		<-tok
		joined = errors.Join(joined, w.slotErr[slot])
		w.slotErr[slot] = nil
		tok <- struct{}{}
	}
	return joined
}

// resetStepCounters zeroes the per-step stall accounting; trainStep calls it
// once per optimizer step.
func (w *actWindow) resetStepCounters() {
	w.offload, w.fetch, w.queuePeak = stallCount{}, stallCount{}, 0
}

// reserveStaged charges the host pool the n staging bytes of the blob encoded
// in slot (the write's ioJob carries them as staged), treating a full pool as
// backpressure rather than failure while writes are in flight: each retired
// write frees its bytes, so joining the oldest one and retrying makes
// progress. The ring orders them — the slots after slot hold the window's
// writes from oldest to newest. Only when none is left in flight (or the
// error is not an OOM) does the failure surface.
func (e *Engine) reserveStaged(slot int, n units.Bytes, stallLabel string) error {
	nslots := len(e.win.slotTok)
	for k := 1; ; k++ {
		err := e.hostPool.Alloc(n)
		if err == nil || !errors.Is(err, memctl.ErrOOM) || k == nslots {
			return err
		}
		oldest := (slot + k) % nslots
		werr := e.win.acquireSlot(oldest, stallLabel, &e.win.offload)
		e.win.releaseSlot(oldest)
		if werr != nil {
			return werr
		}
	}
}
