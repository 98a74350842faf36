package nvme

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ratel/internal/obs"
	"ratel/internal/units"
)

// Transfer scheduler: every throttled object transfer is split into one item
// per device stride and enqueued on that device's I/O lane, where a
// persistent dispatcher goroutine (started at Open, joined at Close) drains
// items one at a time. With Config.Sched on — the engine always sets it —
// each device has two lanes (reads and writes dispatch independently,
// matching the P5510's full-duplex 6.5/3.8 GB/s shape) and each lane
// dequeues by priority class with an anti-starvation aging bound,
// coalescing adjacent stripe chunks into one throttled submission. With it
// off the device has a single lane served strictly in arrival order — FCFS,
// where a critical-path fetch queues behind bulk write-behind: the baseline
// this package's tests and the engine's test oracle compare against.
//
// The scheduler reorders only the *timing* of I/O, never its data: a
// transfer still completes before Put/Get/ReadInto returns, chunk buffers
// are disjoint, and callers' ordering constraints (the engine's pipeline
// barrier, the optimizer's group sequencing) are expressed as
// completion-before-issue dependencies the scheduler cannot invert.

// Class is a transfer priority class. Lower values are more urgent.
type Class uint8

// The traffic classes, in default priority order: a critical-path fetch
// stalls compute now; an optimizer-state read stalls the Adam drain; a
// gradient/state writeback holds a pipeline slot; write-behind activation
// offload has a whole forward+backward of slack.
const (
	ClassCriticalFetch Class = iota
	ClassOptRead
	ClassWriteback
	ClassWriteBehind
	// NumClasses is the number of priority classes.
	NumClasses = 4
)

// The obs package mirrors the class count for per-class telemetry carried
// on flight records; pin the two equal at compile time.
var _ [obs.SchedClassCount]struct{} = [NumClasses]struct{}{}

// DefaultSchedAging bounds how long a lower-priority class can sit queued
// behind higher classes before it is served anyway. 3ms is ~20 stripe
// transfers at the Table III per-device read bandwidth: long enough that
// priorities bite, short enough that a flooded write-behind class still
// drains within a training step.
const DefaultSchedAging = 3 * time.Millisecond

// coalesceMax caps how many adjacent stripe chunks merge into one throttled
// submission (one OpLatency charge). 8 stripes keeps a coalesced run well
// under a millisecond at Table III bandwidths, so dequeue priority is
// re-evaluated often enough for aging to hold.
const coalesceMax = 8

var classNames = [NumClasses]string{"fetch", "opt-read", "writeback", "write-behind"}

// String returns the class's flag-facing name (hyphenated; the snake_case
// metric names live in obs.SchedClassNames).
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// DefaultSchedOrder returns the default priority order.
func DefaultSchedOrder() []Class {
	return []Class{ClassCriticalFetch, ClassOptRead, ClassWriteback, ClassWriteBehind}
}

// Per-device lane indexes. FCFS mode points both at one shared lane.
const (
	laneRead  = 0
	laneWrite = 1
)

// xfer is one in-flight object transfer: the shared state its per-device
// stride items report into. Recycled through xferPool so the steady-state
// swap path allocates nothing.
type xfer struct {
	a     *Array
	obj   object
	buf   []byte
	write bool
	class Class
	bw    units.BytesPerSecond
	lane  string
	tr    *obs.Tracer

	wg  sync.WaitGroup
	mu  sync.Mutex
	err error // first stride error

	items []schedItem // one per device stride, preallocated to len(devs)
}

// done reports one stride's completion.
func (x *xfer) done(err error) {
	if err != nil {
		x.mu.Lock()
		if x.err == nil {
			x.err = err
		}
		x.mu.Unlock()
	}
	x.wg.Done()
}

// schedItem is one device stride of an xfer, linkable into a lane queue.
type schedItem struct {
	x    *xfer
	w    int // stride index: chunks w, w+D, w+2D, ... (one device)
	enq  time.Time
	next *schedItem
}

// itemQueue is an intrusive FIFO of stride items.
type itemQueue struct {
	head, tail *schedItem
}

func (q *itemQueue) push(it *schedItem) {
	it.next = nil
	if q.tail == nil {
		q.head, q.tail = it, it
		return
	}
	q.tail.next = it
	q.tail = it
}

func (q *itemQueue) pop() *schedItem {
	it := q.head
	q.head = it.next
	if q.head == nil {
		q.tail = nil
	}
	it.next = nil
	return it
}

// ioLane is one dispatch queue of a device: all of it in FCFS mode, one
// direction of it in duplex mode. slot/carry are the lane's bandwidth
// throttle bookkeeping, touched only by the lane's dispatcher goroutine.
type ioLane struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      [NumClasses]itemQueue
	closed bool

	// Dispatcher-owned; no lock.
	slot  time.Time // end of the lane's last modeled busy interval
	carry float64   // sub-nanosecond remainder of throttle charges
}

func newIOLane() *ioLane {
	ln := &ioLane{}
	ln.cond = sync.NewCond(&ln.mu)
	return ln
}

// xferPool recycles xfer headers. A plain mutex-guarded freelist rather
// than sync.Pool: the working set is bounded by transfer concurrency (a few
// dozen), and freelist reuse is deterministic, which keeps allocation pins
// in benchmarks exact.
type xferPool struct {
	mu   sync.Mutex
	free []*xfer
}

func (p *xferPool) get(ndevs int) *xfer {
	p.mu.Lock()
	var x *xfer
	if n := len(p.free); n > 0 {
		x = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if x == nil {
		x = &xfer{items: make([]schedItem, ndevs)}
	}
	return x
}

func (p *xferPool) put(x *xfer) {
	// Drop every pointer so a recycled header cannot retain buffers, chunk
	// slices, or tracers across transfers.
	x.a = nil
	x.obj = object{}
	x.buf = nil
	x.tr = nil
	x.err = nil
	for i := range x.items {
		x.items[i] = schedItem{}
	}
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}

// schedClassCounters is one class's cumulative scheduler telemetry.
type schedClassCounters struct {
	enqueued   atomic.Int64
	dispatched atomic.Int64
	waitNS     atomic.Int64 // summed queue wait
	maxWaitNS  atomic.Int64 // worst single queue wait
	depth      atomic.Int64 // items queued right now, across all lanes
	depthPeak  atomic.Int64 // high-water mark of depth
	coalesced  atomic.Int64 // stripe submissions saved by coalescing
}

// SchedClassStats is one class's scheduler telemetry snapshot.
type SchedClassStats struct {
	// Enqueued / Dispatched count stride items (one per device touched per
	// object transfer).
	Enqueued, Dispatched int64
	// Wait is the summed queue wait of dispatched items; MaxWait the worst
	// single wait.
	Wait, MaxWait time.Duration
	// Depth is the class's currently queued items across all device lanes;
	// DepthPeak its cumulative high-water mark.
	Depth, DepthPeak int64
	// Coalesced counts stripe submissions merged into a predecessor (each
	// saved one per-op latency charge).
	Coalesced int64
}

// SchedStats reports per-class scheduler telemetry, indexed by Class.
type SchedStats struct {
	PerClass [NumClasses]SchedClassStats
}

// SchedStats snapshots the transfer scheduler's per-class counters.
func (a *Array) SchedStats() SchedStats {
	var s SchedStats
	for c := range a.sched {
		sc := &a.sched[c]
		s.PerClass[c] = SchedClassStats{
			Enqueued:   sc.enqueued.Load(),
			Dispatched: sc.dispatched.Load(),
			Wait:       time.Duration(sc.waitNS.Load()),
			MaxWait:    time.Duration(sc.maxWaitNS.Load()),
			Depth:      sc.depth.Load(),
			DepthPeak:  sc.depthPeak.Load(),
			Coalesced:  sc.coalesced.Load(),
		}
	}
	return s
}

// foldMax folds v into a cumulative maximum.
func foldMax(peak *atomic.Int64, v int64) {
	for {
		p := peak.Load()
		if v <= p || peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// enqueue hands one stride item to a lane's dispatcher.
func (a *Array) enqueue(ln *ioLane, it *schedItem) {
	c := it.x.class
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		it.x.done(ErrClosed)
		return
	}
	// Stamped under the lane lock so arrival times are strictly consistent
	// with queue order — FCFS dequeue compares heads across class queues.
	it.enq = time.Now()
	ln.q[c].push(it)
	ln.mu.Unlock()
	ln.cond.Signal()
	sc := &a.sched[c]
	sc.enqueued.Add(1)
	foldMax(&sc.depthPeak, sc.depth.Add(1))
}

// dispatch is a lane's persistent worker: it drains items until the lane is
// closed and empty. Joined by Close via dispWG.
func (a *Array) dispatch(ln *ioLane) {
	defer a.dispWG.Done()
	for {
		it := a.nextItem(ln)
		if it == nil {
			return
		}
		a.runItem(ln, it)
	}
}

// nextItem blocks until an item is dequeued or the lane is closed and
// drained.
func (a *Array) nextItem(ln *ioLane) *schedItem {
	ln.mu.Lock()
	for {
		if it := a.pickLocked(ln); it != nil {
			ln.mu.Unlock()
			return it
		}
		if ln.closed {
			ln.mu.Unlock()
			return nil
		}
		ln.cond.Wait()
	}
}

// pickLocked dequeues the next item under ln.mu, or nil if the lane is
// empty. FCFS mode serves strict arrival order across all classes; sched
// mode serves the configured class order unless some queue's oldest waiter
// has aged past the anti-starvation bound, in which case the most overdue
// queue is served first.
func (a *Array) pickLocked(ln *ioLane) *schedItem {
	if !a.schedOn {
		var best *itemQueue
		for c := range ln.q {
			q := &ln.q[c]
			if q.head == nil {
				continue
			}
			if best == nil || q.head.enq.Before(best.head.enq) {
				best = q
			}
		}
		if best == nil {
			return nil
		}
		return best.pop()
	}
	var first *itemQueue
	for _, c := range a.classOrder {
		if ln.q[c].head != nil {
			first = &ln.q[c]
			break
		}
	}
	if first == nil {
		return nil
	}
	if a.aging > 0 {
		cutoff := time.Now().Add(-a.aging)
		var overdue *itemQueue
		for _, c := range a.classOrder {
			q := &ln.q[c]
			if q.head == nil || !q.head.enq.Before(cutoff) {
				continue
			}
			if overdue == nil || q.head.enq.Before(overdue.head.enq) {
				overdue = q
			}
		}
		if overdue != nil {
			return overdue.pop()
		}
	}
	return first.pop()
}

// runItem accounts one dequeued item and executes its device stride.
func (a *Array) runItem(ln *ioLane, it *schedItem) {
	x := it.x
	sc := &a.sched[x.class]
	sc.depth.Add(-1)
	sc.dispatched.Add(1)
	wait := int64(time.Since(it.enq))
	sc.waitNS.Add(wait)
	foldMax(&sc.maxWaitNS, wait)
	x.done(a.runStride(ln, it))
}

// runStride moves the chunks of one phase-stride class (indexes congruent
// to w mod device count — all on one device) between x.buf and the backing
// store, charging the lane throttle. In sched mode, runs of adjacent chunks
// (consecutive offsets on the device, as the round-robin allocator lays
// them out) are coalesced into one throttled submission: the bandwidth
// charge is the run's byte sum but the per-op access latency is paid once,
// the way a single larger NVMe command would.
func (a *Array) runStride(ln *ioLane, it *schedItem) error {
	x, w := it.x, it.w
	obj, buf, write := x.obj, x.buf, x.write
	dev := obj.chunks[w].dev
	devSpan := x.tr.StartSpan(x.lane, a.devLabels[dev])
	defer devSpan.End()
	ndevs := len(a.devs)
	stripe := a.cfg.StripeSize
	var devBytes int64
	runBytes, runOps := 0, 0
	runEndOff := int64(-1)
	for i := w; i < len(obj.chunks); i += ndevs {
		c := obj.chunks[i]
		if err := a.chunkIOMirrored(c, buf[i*stripe:i*stripe+c.n], write); err != nil {
			return err
		}
		devBytes += int64(c.n)
		if !a.schedOn {
			a.throttleLane(ln, it.enq, c.n, x.bw)
			continue
		}
		if runOps > 0 && c.off == runEndOff && runOps < coalesceMax {
			runBytes += c.n
			runOps++
		} else {
			a.flushRun(ln, it, runBytes, runOps)
			runBytes, runOps = c.n, 1
		}
		runEndOff = c.off + int64(stripe)
	}
	a.flushRun(ln, it, runBytes, runOps)
	a.statMu.Lock()
	a.perDevBytes[dev] += devBytes
	a.statMu.Unlock()
	return nil
}

// flushRun submits one coalesced run to the lane throttle.
func (a *Array) flushRun(ln *ioLane, it *schedItem, runBytes, runOps int) {
	if runOps == 0 {
		return
	}
	a.throttleLane(ln, it.enq, runBytes, it.x.bw)
	if runOps > 1 {
		a.sched[it.x.class].coalesced.Add(int64(runOps - 1))
	}
}

// throttleLane charges one submission of n bytes (one per-op access
// latency) to the lane and sleeps until the lane's modeled busy interval
// ends. The charge starts where the lane became free, or when the item was
// enqueued if that is later — never at the dispatcher's wake-up: a sleep
// that overshoots (timer granularity, or a compute kernel holding the one
// P) leaves the slot in the past, and the backlog behind it is then charged
// without sleeping until the lane has caught up. A backlogged lane so
// sustains the configured bandwidth whatever the timer does, and never
// exceeds it: N transfers queued at time t never finish before
// t + bytes/bw + N·OpLatency. The sub-nanosecond remainder of each charge
// is carried forward (ln.carry), so streams of tiny transfers pay their true
// cost instead of rounding down to free. Dispatcher-owned state; no locking.
func (a *Array) throttleLane(ln *ioLane, enq time.Time, n int, bw units.BytesPerSecond) {
	lat := a.cfg.OpLatency
	if bw <= 0 && lat <= 0 {
		return
	}
	total := ln.carry + units.TransferNanos(units.Bytes(n), bw) + float64(lat)
	dur := time.Duration(total)
	ln.carry = total - float64(dur)
	if ln.slot.Before(enq) {
		ln.slot = enq
	}
	ln.slot = ln.slot.Add(dur)
	if wait := time.Until(ln.slot); wait > 0 {
		time.Sleep(wait)
	}
}
