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
// items one at a time in arrival order. Each device has two lanes (reads and
// writes dispatch independently, matching the P5510's full-duplex 6.5/3.8
// GB/s shape), and each lane coalesces adjacent stripe chunks into one
// throttled submission. The Config.FCFS test oracle gives the device a
// single shared lane without coalescing, where a read queues behind every
// write issued before it: the baseline this package's tests and the
// engine's test oracle compare against.
//
// The scheduler orders only the *timing* of I/O, never its data: Start
// returns once a transfer's strides are on the lanes (or, untimed and small,
// moved inline), and callers' ordering constraints (the engine's ring slots
// and step barrier, the optimizer's read-after-write per state piece) are a
// Wait on one ticket before the dependent Start, which the scheduler cannot
// invert. Chunk buffers are disjoint.

// coalesceMax caps how many adjacent stripe chunks merge into one throttled
// submission (one OpLatency charge). 8 stripes keeps a coalesced run well
// under a millisecond at Table III bandwidths.
const coalesceMax = 8

// Per-device lane indexes, which also index the per-direction scheduler
// counters. The FCFS oracle points both lanes at one shared lane.
const (
	laneRead  = 0
	laneWrite = 1
)

// dir is a transfer direction's lane index.
func dir(write bool) int {
	if write {
		return laneWrite
	}
	return laneRead
}

// Ticket is one object transfer, from Start until its Wait returns: the
// object and what settling it needs, and the state its stride items report
// into. Recycled through xferPool so the steady-state swap path allocates
// nothing: wait on a ticket exactly once, and not touch it after.
type Ticket struct {
	a      *Array
	key    string
	obj    object
	fresh  bool // a write laid out on fresh chunks, released if it fails
	buf    []byte
	write  bool
	queued bool // on the device lanes, not run inline
	bw     units.BytesPerSecond
	lane   string
	tr     *obs.Tracer
	o      *arrayObservers

	// start and end bracket the transfer; also is the caller's span of it.
	start, end         time.Time
	alsoLane, alsoName string

	// left counts the strides not yet finished, plus Start's share; the one
	// that takes it to zero sends on fin, for Wait, and on notify.
	left   atomic.Int32
	fin    chan struct{}
	mu     sync.Mutex
	err    error // first stride error
	notify chan<- struct{}

	items []schedItem // one per device stride, preallocated to len(devs)
}

// done reports one stride's completion, or Start's.
func (x *Ticket) done(err error) {
	x.mu.Lock()
	if x.err == nil {
		x.err = err
	}
	x.mu.Unlock()
	if x.left.Add(-1) == 0 {
		x.end = time.Now()
		x.mu.Lock()
		c := x.notify
		x.mu.Unlock()
		x.fin <- struct{}{} // the last touch: from here on Wait may recycle x
		wake(c)
	}
}

// wake sends on c, if any, unless a send is already pending there.
func wake(c chan<- struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// Done reports, without blocking, whether the transfer has finished.
func (x *Ticket) Done() bool { return x.left.Load() == 0 }

// Notify has the transfer send on c when it finishes, or now if it has,
// unless a send is already pending there: whoever owns many tickets can wait
// for any of them on one channel, then ask each Done.
func (x *Ticket) Notify(c chan<- struct{}) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.notify = c; x.Done() {
		wake(c)
	}
}

// Trace records the transfer's span a second time, on lane as name.
func (x *Ticket) Trace(lane, name string) { x.alsoLane, x.alsoName = lane, name }

// schedItem is one device stride of a Ticket, linkable into a lane queue.
type schedItem struct {
	x    *Ticket
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
	q      itemQueue
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

// newLanes makes a device's lanes, indexed laneRead/laneWrite: one per
// direction, or for the FCFS oracle one shared by both.
func newLanes(fcfs bool) [2]*ioLane {
	if fcfs {
		shared := newIOLane()
		return [2]*ioLane{shared, shared}
	}
	return [2]*ioLane{newIOLane(), newIOLane()}
}

// xferPool recycles tickets. A plain mutex-guarded freelist rather
// than sync.Pool: the working set is bounded by transfer concurrency (a few
// dozen), and freelist reuse is deterministic, which keeps allocation pins
// in benchmarks exact.
type xferPool struct {
	mu   sync.Mutex
	free []*Ticket
}

func (p *xferPool) get(ndevs int) *Ticket {
	p.mu.Lock()
	var x *Ticket
	if n := len(p.free); n > 0 {
		x = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if x == nil {
		x = &Ticket{items: make([]schedItem, ndevs), fin: make(chan struct{}, 1)}
	}
	return x
}

func (p *xferPool) put(x *Ticket) {
	// Drop every pointer so a recycled ticket cannot retain buffers, chunk
	// slices, or tracers across transfers.
	clear(x.items)
	*x = Ticket{items: x.items, fin: x.fin}
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}

// schedCounters is one direction's cumulative scheduler telemetry.
type schedCounters struct {
	enqueued   atomic.Int64
	dispatched atomic.Int64
	waitNS     atomic.Int64 // summed queue wait
	depth      atomic.Int64 // items queued right now, across all lanes
	depthPeak  atomic.Int64 // high-water mark of depth
	coalesced  atomic.Int64 // stripe submissions saved by coalescing
}

// SchedLaneStats is one direction's scheduler telemetry snapshot.
type SchedLaneStats struct {
	// Enqueued / Dispatched count stride items (one per device touched per
	// object transfer).
	Enqueued, Dispatched int64
	// Wait is the summed queue wait of dispatched items.
	Wait time.Duration
	// Depth is the direction's currently queued items across all devices;
	// DepthPeak its cumulative high-water mark.
	Depth, DepthPeak int64
	// Coalesced counts stripe submissions merged into a predecessor (each
	// saved one per-op latency charge).
	Coalesced int64
}

// SchedStats reports the scheduler's telemetry per transfer direction.
type SchedStats struct {
	Read, Write SchedLaneStats
}

// SchedStats snapshots the transfer scheduler's per-direction counters.
func (a *Array) SchedStats() SchedStats {
	return SchedStats{Read: a.sched[laneRead].snapshot(), Write: a.sched[laneWrite].snapshot()}
}

func (sc *schedCounters) snapshot() SchedLaneStats {
	return SchedLaneStats{
		Enqueued:   sc.enqueued.Load(),
		Dispatched: sc.dispatched.Load(),
		Wait:       time.Duration(sc.waitNS.Load()),
		Depth:      sc.depth.Load(),
		DepthPeak:  sc.depthPeak.Load(),
		Coalesced:  sc.coalesced.Load(),
	}
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
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		it.x.done(ErrClosed)
		return
	}
	// Counted before the push: a dispatcher may take the item at the unlock.
	it.enq = time.Now()
	sc := &a.sched[dir(it.x.write)]
	sc.enqueued.Add(1)
	foldMax(&sc.depthPeak, sc.depth.Add(1))
	ln.q.push(it)
	ln.mu.Unlock()
	ln.cond.Signal()
}

// dispatch is a lane's persistent worker: it drains items until the lane is
// closed and empty. Joined by Close via dispatchers.
func (a *Array) dispatch(ln *ioLane) {
	for {
		it := ln.nextItem()
		if it == nil {
			return
		}
		a.runItem(ln, it)
	}
}

// nextItem blocks until the lane's oldest item is dequeued, or returns nil
// once the lane is closed and drained.
func (ln *ioLane) nextItem() *schedItem {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for ln.q.head == nil {
		if ln.closed {
			return nil
		}
		ln.cond.Wait()
	}
	return ln.q.pop()
}

// runItem accounts one dequeued item and executes its device stride.
func (a *Array) runItem(ln *ioLane, it *schedItem) {
	x := it.x
	sc := &a.sched[dir(x.write)]
	sc.depth.Add(-1)
	sc.dispatched.Add(1)
	sc.waitNS.Add(int64(time.Since(it.enq)))
	var err error
	x.tr.Do(x.lane, a.devLabels[x.obj.chunks[it.w].dev], func() { err = a.runStride(ln, it) })
	x.done(err)
}

// runStride moves the chunks of one device stride (indexes congruent
// to w mod device count — all on one device) between x.buf and the backing
// store, charging the lane throttle; a nil lane is an untimed transfer's,
// run inline on the caller's goroutine, which charges nothing. On duplex lanes, runs of adjacent chunks
// (consecutive offsets on the device, as the round-robin allocator lays
// them out) are coalesced into one throttled submission: the bandwidth
// charge is the run's byte sum but the per-op access latency is paid once,
// the way a single larger NVMe command would.
func (a *Array) runStride(ln *ioLane, it *schedItem) error {
	x, w := it.x, it.w
	obj, buf, write := x.obj, x.buf, x.write
	dev := obj.chunks[w].dev
	ndevs := len(a.devs)
	stripe := a.cfg.StripeSize
	var devBytes int64
	runBytes, runOps := 0, 0
	runEndOff := int64(-1)
	for i := w; i < len(obj.chunks); i += ndevs {
		c, n := obj.chunks[i], min(stripe, obj.size-i*stripe)
		if err := a.chunkIO(c.dev, c.off, buf[i*stripe:i*stripe+n], write); err != nil {
			return fmt.Errorf("%s %q on device %d: %w", x.lane, x.key, c.dev, err)
		}
		devBytes += int64(n)
		if a.cfg.FCFS {
			a.throttleLane(ln, it.enq, n, x.bw)
			continue
		}
		if runOps > 0 && c.off == runEndOff && runOps < coalesceMax {
			runBytes += n
			runOps++
		} else {
			a.flushRun(ln, it, runBytes, runOps)
			runBytes, runOps = n, 1
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
	if runOps > 1 && ln != nil {
		a.sched[dir(it.x.write)].coalesced.Add(int64(runOps - 1))
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
