package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/units"
)

// This file is the activation I/O window (§IV-C/§IV-D, Fig. 4): the one
// mechanism that moves block activations between main memory and the NVMe
// array, behind forward compute (write-behind) and ahead of backward compute
// (read-ahead). It owns a ring of PipelineDepth+1 slots, block i's being
// i mod len(ring): each a blob buffer and the ticket of the transfer that
// last used it until someone waits on it. The step goroutine owns the ring;
// the array's lanes move the bytes while it computes. Acquiring a slot is
// the join — it waits on the slot's ticket, if any, and yields its error —
// so nobody reaches a buffer a transfer still holds.
//
// runBatch reaches the ring through offload, prefetch and consume, each
// acquiring one slot, and barrier, which waits on every ticket at the
// forward/backward boundary and on every failure path, so no transfer or
// error outlives its step; acquire and ring have no user outside this file
// (TestSlotProtocolStaysInPipeline). When each runs, and which blocks need
// no fetch, is the step plan's business (plan.go): a written slot keeps its
// blob, so consume of a resident block acquires the slot as always — the
// join with its write-behind — and decodes the bytes already there.
//
// Forward has at most depth writes in flight besides the one being encoded:
// block i+len(ring) waits on block i's ticket (a recorded stall when it has
// not finished). Backward's started, unconsumed fetches span at most depth+1
// consecutive blocks: distinct slots.

// DefaultPipelineDepth is the activation I/O window used when
// Config.PipelineDepth is zero: up to 2 blobs in flight per direction.
const DefaultPipelineDepth = 2

// ringSlot is a ring slot: the blob buffer (allocated at the slot's first
// use, kept for the engine's lifetime) and the ticket of the transfer that
// last used it, nil once waited on.
type ringSlot struct {
	blob []byte
	t    *nvme.Ticket
}

// stallCount is one direction's flow-control accounting for the step in
// progress: how often, and how long, the step goroutine blocked on a slot.
type stallCount struct {
	n    int
	wait time.Duration
}

// actWindow moves activation blobs between the ring and the NVMe array. It
// starts no goroutine: every transfer is a ticket on the array's lanes.
type actWindow struct {
	array   *nvme.Array
	tracer  *obs.Tracer
	labels  []blockLabels // the engine's, by block
	blobLen int
	reuses  *atomic.Int64 // engine.blob_reuses, shared with the host tier

	// ring is the slots (see the file comment). resident counts the bytes
	// consume decoded straight from a slot (Stats.ActBytesResident).
	ring     []ringSlot
	resident units.Bytes
	// syncIO is the oracleSyncIO test hook: every transfer is waited on right
	// after it starts.
	syncIO bool

	// Step-local accounting. queuePeak is the most writes seen in flight
	// right after one started.
	offloadStall, fetchStall stallCount
	queuePeak                int
}

// acquire is the join on slot i: it waits on the slot's ticket, if any, and
// returns that transfer's error (once; the ticket is gone after). A ticket
// not yet finished is the window's flow control working: the wait goes on
// obs.LaneStall and into st, the caller's direction.
func (w *actWindow) acquire(i int, stallLabel string, st *stallCount) error {
	t := w.ring[i].t
	if t == nil {
		return nil
	}
	w.ring[i].t = nil
	if t.Done() {
		return t.Wait()
	}
	start := time.Now()
	var err error
	w.tracer.Do(obs.LaneStall, stallLabel, func() { err = t.Wait() })
	st.n++
	st.wait += time.Since(start)
	return err
}

// start begins slot i's transfer of its blob to or from block's object,
// traced on lane as name.
func (w *actWindow) start(i int, l *blockLabels, write bool, lane, name string) error {
	t := w.array.Start(l.actKey, w.ring[i].blob, write)
	t.Trace(lane, name)
	// Hand the CPU to the lanes right away: the compute loop never blocks
	// between transfers, so on a fully loaded host (GOMAXPROCS=1) a woken
	// dispatcher would wait for the ~10ms preemption tick before its first
	// device op — long enough to push a write train past the end of forward,
	// or a read past its consume. It parks on the throttle almost at once.
	runtime.Gosched()
	if w.syncIO {
		return t.Wait()
	}
	w.ring[i].t = t
	return nil
}

// offload is forward's write-behind of one block: fill encodes its cache into
// the slot's blob and the array puts the blob while the next block computes.
// Acquiring the slot bounds reuse (a full window stalls here) and surfaces
// the error of the transfer that last used it. The slot keeps block's blob
// until it is reused.
func (w *actWindow) offload(block int, fill func(blob []byte) error) error {
	l, i := &w.labels[block], block%len(w.ring)
	if err := w.acquire(i, l.stall, &w.offloadStall); err != nil {
		return fmt.Errorf("engine: offload activations: %w", err)
	}
	if err := fill(keepBlob(&w.ring[i].blob, w.blobLen, w.reuses)); err != nil {
		return err
	}
	if err := w.start(i, l, true, obs.LaneOffload, l.write); err != nil {
		return fmt.Errorf("engine: offload activations: %w", err)
	}
	n := 0
	for _, s := range w.ring {
		if s.t != nil && !s.t.Done() {
			n++
		}
	}
	w.queuePeak = max(w.queuePeak, n)
	return nil
}

// prefetch starts backward's read-ahead of one block into its slot.
func (w *actWindow) prefetch(block int) error {
	l, i := &w.labels[block], block%len(w.ring)
	if err := w.acquire(i, l.fetchStall, &w.fetchStall); err != nil {
		return err
	}
	keepBlob(&w.ring[i].blob, w.blobLen, w.reuses)
	return w.start(i, l, false, obs.LanePrefetch, l.prefetch)
}

// consume joins block's fetch — or, for a resident block (its slot still
// holds its blob), the block's write-behind — and lends the blob to use.
// Finding the transfer finished means read-ahead won; waiting means it
// missed its deadline, and the wait lands on the stall lane so bottleneck
// attribution can tell "stalled-on-readahead" from plain NVMe-read occupancy.
func (w *actWindow) consume(block int, resident bool, use func(blob []byte) error) error {
	l, i := &w.labels[block], block%len(w.ring)
	if err := w.acquire(i, l.fetchStall, &w.fetchStall); err != nil {
		return fmt.Errorf("engine: fetch block %d activations: %w", block, err)
	}
	if err := use(keepBlob(&w.ring[i].blob, w.blobLen, w.reuses)); err != nil {
		return err
	}
	if resident {
		w.resident += units.Bytes(w.blobLen)
	}
	return nil
}

// barrier waits on every slot's ticket and returns the errors joined.
// Idempotent: with nothing in flight it returns nil without blocking.
func (w *actWindow) barrier() error {
	var joined error
	for i := range w.ring {
		if t := w.ring[i].t; t != nil {
			w.ring[i].t = nil
			joined = errors.Join(joined, t.Wait())
		}
	}
	return joined
}

// startStep zeroes the per-step stall accounting. trainStep calls it once
// per optimizer step.
func (w *actWindow) startStep() {
	w.offloadStall, w.fetchStall, w.queuePeak = stallCount{}, stallCount{}, 0
}
