package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ratel/internal/memctl"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/units"
)

// This file is the activation I/O window (§IV-C/§IV-D, Fig. 4): the one
// mechanism that moves block activations between main memory and the NVMe
// array, behind forward compute (write-behind) and ahead of backward compute
// (read-ahead). It owns a ring of PipelineDepth+1 blob buffers; block i maps
// to slot i mod len(ring). A slot is its own token: a one-element channel
// holding the buffer and the outcome of the transfer that last used it, so
// nobody reaches a buffer without holding its slot, and taking a slot is the
// join — it blocks until the slot's transfer has retired and yields its error.
//
// runBatch reaches the ring through three methods, each taking one slot and
// giving it up exactly once on every path — offload, prefetch, consume — and
// barrier, which takes and returns them all at the forward/backward boundary
// and on every failure path, so no transfer, error or host-pool charge
// outlives its step. acquire and release have no caller outside this file
// (TestSlotProtocolStaysInPipeline).
//
// The ring needs no lock. Forward has at most depth writes in flight: block
// i+len(ring) waits on block i's slot (a recorded stall when the window is
// full) and every write drains at the barrier. Backward launches the fetch
// for block i-depth when block i is consumed, so launched-but-unconsumed
// fetches span depth+1 consecutive blocks, which map to distinct slots.

// DefaultPipelineDepth is the activation I/O window used when
// Config.PipelineDepth is zero: up to 2 blobs in flight per direction.
const DefaultPipelineDepth = 2

// EffectiveDepth reports the activation I/O window in force.
func (e *Engine) EffectiveDepth() int { return e.depth }

// ringSlot is a ring slot, and its token: the blob buffer (allocated at the
// slot's first use, kept for the engine's lifetime) and the outcome of the
// transfer that last used it, taken by whoever takes the slot next.
type ringSlot struct {
	blob []byte
	err  error
}

// ioJob is one block's activation blob on its way to the NVMe array or back
// (read). It carries slot's buffer: the worker owns the slot until the
// transfer returns.
type ioJob struct {
	slot int
	read bool
	l    *blockLabels // the block's object key and transfer-span labels
	blob []byte
}

// stallCount is one direction's flow-control accounting for the step in
// progress: how often, and how long, the step goroutine blocked on a slot.
type stallCount struct {
	n    int
	wait time.Duration
}

// actWindow runs ioJobs against the NVMe array. Its workers are spawned once
// at engine construction and live until close; the per-step accounting
// belongs to the engine's step goroutine.
type actWindow struct {
	array   *nvme.Array
	host    *memctl.Pool
	tracer  *obs.Tracer
	labels  []blockLabels // the engine's, by block
	blobLen int
	reuses  *atomic.Int64 // engine.blob_reuses, shared with the host tier

	// ring holds each slot while nobody owns it (see the file comment).
	ring []chan ringSlot
	// jobs is the transfer queue, one place per slot: a submission carries its
	// slot, so a send never blocks and flow control happens at acquire.
	jobs chan ioJob
	// syncIO is the oracleSyncIO test hook: every submit joins its own
	// transfer before returning.
	syncIO   bool
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Step-local accounting, owned by the engine's step goroutine. queuePeak
	// is the deepest write-behind backlog seen.
	offloadStall, fetchStall stallCount
	queuePeak                int
}

// newActWindow builds the depth+1 ring of blobLen-byte slots and starts one
// worker per in-flight transfer the window allows (depth): fewer would leave
// device bandwidth idle between blob boundaries.
func newActWindow(a *nvme.Array, host *memctl.Pool, tr *obs.Tracer, labels []blockLabels, blobLen int, reuses *atomic.Int64, depth int) *actWindow {
	w := &actWindow{
		array: a, host: host, tracer: tr, labels: labels, blobLen: blobLen, reuses: reuses,
		ring: make([]chan ringSlot, depth+1),
		jobs: make(chan ioJob, depth+1),
	}
	for i := range w.ring {
		w.ring[i] = make(chan ringSlot, 1)
		w.ring[i] <- ringSlot{}
	}
	w.wg.Add(depth)
	for i := 0; i < depth; i++ {
		go w.worker()
	}
	return w
}

// worker runs transfers until the window is closed. Every job returns its
// slot — a write after freeing the staging bytes offload charged for it — no
// matter how the transfer went: the error travels in the slot.
func (w *actWindow) worker() {
	defer w.wg.Done()
	for j := range w.jobs {
		start := w.tracer.Now()
		var err error
		if j.read {
			err = w.array.ReadInto(j.l.actKey, j.blob)
			w.tracer.RecordSpan(obs.LanePrefetch, j.l.prefetch, start, w.tracer.Now())
		} else {
			// Write-behind is the least urgent traffic class: a whole
			// forward+backward separates the Put from the blob's next read.
			err = w.array.PutClass(j.l.actKey, j.blob, nvme.ClassWriteBehind)
			w.tracer.RecordSpan(obs.LaneOffload, j.l.write, start, w.tracer.Now())
			w.host.Free(units.Bytes(len(j.blob)))
		}
		w.ring[j.slot] <- ringSlot{blob: j.blob, err: err}
	}
}

// close stops the workers and waits for them to exit. Idempotent; nothing
// is in flight between steps, so there is nothing to drain first.
func (w *actWindow) close() {
	w.stopOnce.Do(func() { close(w.jobs) })
	w.wg.Wait()
}

// acquire takes slot i — the join: it blocks while the slot's transfer is in
// flight and returns that transfer's error (once; taking it clears it). The
// caller owns the slot, whatever the error, until it gives it up with submit
// or release. A blocked acquire is the window's flow control working: the
// wait goes on obs.LaneStall and into st, the caller's direction.
func (w *actWindow) acquire(i int, stallLabel string, st *stallCount) (ringSlot, error) {
	var s ringSlot
	select {
	case s = <-w.ring[i]:
	default:
		start := time.Now()
		tstart := w.tracer.Now()
		s = <-w.ring[i]
		w.tracer.RecordSpan(obs.LaneStall, stallLabel, tstart, w.tracer.Now())
		st.n++
		st.wait += time.Since(start)
	}
	return ringSlot{blob: s.blob}, s.err
}

// release returns a slot taken by acquire without starting a transfer.
func (w *actWindow) release(i int, s ringSlot) { w.ring[i] <- s }

// buf is a held slot's blob.
func (w *actWindow) buf(s *ringSlot) []byte { return keepBlob(&s.blob, w.blobLen, w.reuses) }

// submit hands an acquired slot to a worker with its transfer.
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
		// acquire or barrier, exactly as for a pipelined transfer.
		w.ring[j.slot] <- <-w.ring[j.slot]
	}
}

// offload is forward's write-behind of one block: fill encodes its cache into
// the slot's blob and a worker puts the blob to the array while the next block
// computes, its bytes charged to the host pool until the write retires. Taking
// the slot bounds reuse (a full window stalls here) and surfaces the error of
// the transfer that last used it; any error gives the slot back.
func (w *actWindow) offload(block int, fill func(blob []byte) error) error {
	l, i := &w.labels[block], block%len(w.ring)
	s, err := w.acquire(i, l.stall, &w.offloadStall)
	if err != nil {
		err = fmt.Errorf("engine: offload activations: %w", err)
	} else if err = fill(w.buf(&s)); err == nil {
		if err = w.reserveStaged(block); err != nil {
			err = fmt.Errorf("engine: host staging for block %d: %w", block, err)
		}
	}
	if err != nil {
		w.release(i, s)
		return err
	}
	w.submit(ioJob{slot: i, l: l, blob: s.blob})
	return nil
}

// prefetch launches backward's read-ahead of one block into its slot.
func (w *actWindow) prefetch(block int) error {
	l, i := &w.labels[block], block%len(w.ring)
	s, err := w.acquire(i, l.fetchStall, &w.fetchStall)
	if err != nil {
		w.release(i, s)
		return err
	}
	w.submit(ioJob{slot: i, read: true, l: l, blob: w.buf(&s)})
	return nil
}

// consume joins block's fetch, lends the blob to use and gives the slot back.
// Finding the slot home means read-ahead won; blocking means it missed its
// deadline, and the wait lands on the stall lane so bottleneck attribution can
// tell "stalled-on-readahead" from plain NVMe-read occupancy.
func (w *actWindow) consume(block int, use func(blob []byte) error) error {
	l, i := &w.labels[block], block%len(w.ring)
	s, err := w.acquire(i, l.fetchStall, &w.fetchStall)
	if err != nil {
		err = fmt.Errorf("engine: fetch block %d activations: %w", block, err)
	} else {
		err = use(w.buf(&s))
	}
	w.release(i, s)
	return err
}

// barrier joins every transfer in flight: it takes and returns every slot
// and returns the errors joined. Idempotent: with nothing in flight it
// returns nil without blocking.
func (w *actWindow) barrier() error {
	var joined error
	for _, tok := range w.ring {
		s := <-tok
		joined = errors.Join(joined, s.err)
		tok <- ringSlot{blob: s.blob}
	}
	return joined
}

// resetStepCounters zeroes the per-step stall accounting; trainStep calls it
// once per optimizer step.
func (w *actWindow) resetStepCounters() {
	w.offloadStall, w.fetchStall, w.queuePeak = stallCount{}, stallCount{}, 0
}

// reserveStaged charges the host pool for block's encoded blob (the worker
// frees the bytes when the write retires), treating a full pool as
// backpressure while writes are in flight: each retired write frees its
// bytes, so joining the oldest — the slots after block's hold the window's
// writes from oldest to newest — and retrying makes progress. Only when none
// is left in flight (or the error is not an OOM) does the failure surface.
func (w *actWindow) reserveStaged(block int) error {
	for k := 1; ; k++ {
		err := w.host.Alloc(units.Bytes(w.blobLen))
		if err == nil || !errors.Is(err, memctl.ErrOOM) || k == len(w.ring) {
			return err
		}
		oldest := (block + k) % len(w.ring)
		s, werr := w.acquire(oldest, w.labels[block].stall, &w.offloadStall)
		w.release(oldest, s)
		if werr != nil {
			return werr
		}
	}
}
