// Package nvme implements the SSD-array substrate: a striped object store
// over N devices, each backed by a file or by memory. It is the storage
// layer the real training engine and the out-of-core CPU optimizer spill
// tensors through, standing in for the evaluation server's 12× Intel P5510
// array.
//
// The store is deliberately faithful to the properties the paper depends
// on: chunks of an object are striped round-robin across devices and read/
// written by per-device workers, so aggregate bandwidth scales with device
// count (Fig. 10); an optional throttle enforces per-device and host-link
// bandwidth so that scaling is observable in wall-clock benchmarks; and
// device faults can be injected to test error propagation.
package nvme

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ratel/internal/join"
	"ratel/internal/obs"
	"ratel/internal/units"
)

// DefaultStripeSize is the chunk size objects are striped at: one 4 KiB
// NVMe page, the stripe the engine's activation and state objects use.
const DefaultStripeSize = 4096

// ErrNotFound is returned when reading a key that was never written.
var ErrNotFound = errors.New("nvme: object not found")

// Config describes an array. The zero value (with Devices set) is the array
// the training engine runs: duplex arrival-order lanes, 4 KiB stripes, no
// throttle.
type Config struct {
	// Devices is the number of SSDs; must be >= 1.
	Devices int
	// StripeSize is the striping chunk in bytes; DefaultStripeSize if zero.
	StripeSize int
	// Dir, when non-empty, backs each device with a file under this
	// directory; otherwise devices live in memory.
	Dir string
	// ReadBW / WriteBW, when non-zero, throttle each device to the given
	// bandwidth by sleeping, so that wall-clock behaviour matches the
	// device model.
	ReadBW, WriteBW units.BytesPerSecond
	// OpLatency, when non-zero, adds a fixed per-chunk access latency on
	// top of the bandwidth throttle (NVMe reads cost tens of microseconds
	// before the first byte arrives).
	OpLatency time.Duration
	// Checksums, when true, stores a CRC-32C per object and verifies it on
	// every read, failing with ErrCorrupt on mismatch.
	Checksums bool
	// FCFS is a test oracle: each device runs a single lane for both
	// directions (reads queue behind writes) and submits every stripe on its
	// own, the contention baseline the scheduler's tests and benchmarks
	// compare against. Off — always, outside tests — each device has duplex
	// lanes (reads dispatch independently of writes) that coalesce adjacent
	// stripe submissions. Both serve each lane in arrival order, and a
	// transfer's object settles at its Wait, so stored data is identical in
	// both modes.
	FCFS bool
}

// ErrCorrupt is returned when a checksummed object fails verification.
var ErrCorrupt = errors.New("nvme: object corrupted")

// ErrClosed is returned by transfers issued after Close.
var ErrClosed = errors.New("nvme: array closed")

// device is one SSD: a backing store plus a chunk allocator. Chunks are
// fixed-size so freeing is a free-list push.
type device struct {
	mu   sync.Mutex
	back backend
	next int64 // next fresh chunk offset
	free []int64
	// fault, when non-nil, fails chunk I/O — after faultDelay more chunk
	// operations succeed (0 = immediately). See InjectFault/InjectFaultAfter.
	fault      error
	faultDelay int
	// lanes are the device's dispatch queues, indexed laneRead/laneWrite.
	// Duplex mode gives each direction its own lane and dispatcher; the FCFS
	// oracle points both at one shared lane (reads queue behind writes).
	lanes [2]*ioLane
}

// backend is the byte-addressed storage under a device.
type backend interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Close() error
}

// chunkRef locates one stripe chunk. Chunk i of an object holds its bytes
// [i × stripe, min((i+1) × stripe, size)) if its size reaches that far.
type chunkRef struct {
	dev int
	off int64
}

type object struct {
	size   int
	chunks []chunkRef
	crc    uint32
}

// Array is a striped object store. All methods are safe for concurrent use.
type Array struct {
	cfg       Config
	devs      []*device
	devLabels []string // per-device span names ("ssd0"...), preallocated
	mu        sync.RWMutex
	objs      map[string]object
	nextRR    int // round-robin start device for the next object

	// Transfer-scheduler state: the dispatcher join group, the recycled
	// transfer headers and the per-direction counters (laneRead, laneWrite).
	dispatchers join.Group
	xpool       xferPool
	sched       [2]schedCounters

	closeOnce sync.Once
	closeErr  error

	tracer atomic.Pointer[obs.Tracer]     // optional wall-clock span recorder
	obsv   atomic.Pointer[arrayObservers] // optional latency/flow instruments

	// Cumulative traffic: bytes and object operations per direction
	// (laneRead, laneWrite), the writes that laid an object out on new
	// chunks, and total bytes per device (the stripe balance, which this
	// package's tests check).
	statMu      sync.Mutex
	bytes, ops  [2]int64
	layouts     int64
	perDevBytes []int64

	// Per-direction object transfers started and not yet waited on, or
	// running inline, and their cumulative high-water marks. The
	// peaks expose the depth the engine's ring and the optimizer's tickets
	// actually reached on the array.
	inFlight, peakInFlight [2]atomic.Int64
}

// Stats reports cumulative traffic through the array.
type Stats struct {
	BytesRead    units.Bytes
	BytesWritten units.Bytes
	// ReadOps / WriteOps count completed object transfers, reads and
	// writes, each counted at its Wait.
	ReadOps, WriteOps int64
	// PeakReadsInFlight / PeakWritesInFlight are the cumulative high-water
	// marks of object transfers started and not yet waited on — the
	// concurrency the caller's I/O pipeline actually achieved per direction.
	PeakReadsInFlight, PeakWritesInFlight int64
	// Objects is the number of stored objects.
	Objects int
	// Layouts counts the writes that put an object on chunks it did not
	// hold: a new object, or one that outgrew its chunks.
	Layouts int64
}

// SetTracer installs a wall-clock span tracer: every object written records
// a span on obs.LaneNVMeWrite and every object read one on obs.LaneNVMeRead,
// named by its key and running from Start to its last stride's finish, plus
// one per-device span per object transfer (named "ssdN") so the stripe
// parallelism is visible on the timeline. A nil tracer disables tracing.
// Safe to call concurrently.
func (a *Array) SetTracer(tr *obs.Tracer) {
	a.tracer.Store(tr)
	// devLabel strings are preallocated at Open; nothing else to do.
}

// arrayObservers groups the optional data-movement instruments fed per
// object transfer: transfer-latency histograms (one per direction) and a
// byte-flow ledger with the caller's key→purpose classifier. Bundled in
// one pointer so the hot path pays a single atomic load to find them all.
type arrayObservers struct {
	readLat  *obs.Histogram
	writeLat *obs.Histogram
	ledger   *obs.FlowLedger
	classify func(key string) obs.FlowPurpose
}

// SetObservers installs per-direction object-transfer latency histograms
// and a byte-flow ledger crediting host↔NVMe traffic to the purpose
// classify assigns each key (nil classify files everything under
// obs.FlowOther). Any instrument may be nil. The per-op overhead when
// installed is a few atomic adds — no allocation — on the two time stamps
// every ticket takes. Safe to call concurrently with I/O.
func (a *Array) SetObservers(readLat, writeLat *obs.Histogram, ledger *obs.FlowLedger, classify func(key string) obs.FlowPurpose) {
	a.obsv.Store(&arrayObservers{readLat: readLat, writeLat: writeLat, ledger: ledger, classify: classify})
}

// note feeds one completed object transfer into the instruments.
func (o *arrayObservers) note(key string, n int64, write bool, d time.Duration) {
	if o == nil {
		return
	}
	p := obs.FlowOther
	if o.classify != nil {
		p = o.classify(key)
	}
	if write {
		o.writeLat.RecordDuration(d)
		o.ledger.Add(obs.EdgeHostNVMeWrite, p, n)
		return
	}
	o.readLat.RecordDuration(d)
	o.ledger.Add(obs.EdgeHostNVMeRead, p, n)
}

// Open creates an array.
func Open(cfg Config) (*Array, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("nvme: need at least one device, got %d", cfg.Devices)
	}
	if cfg.StripeSize == 0 {
		cfg.StripeSize = DefaultStripeSize
	}
	if cfg.StripeSize < 1 {
		return nil, fmt.Errorf("nvme: stripe size %d invalid", cfg.StripeSize)
	}
	a := &Array{
		cfg:         cfg,
		objs:        make(map[string]object),
		perDevBytes: make([]int64, cfg.Devices),
	}
	for i := 0; i < cfg.Devices; i++ {
		var b backend
		if cfg.Dir == "" {
			b = &memBackend{}
		} else {
			f, err := os.OpenFile(filepath.Join(cfg.Dir, fmt.Sprintf("ssd%02d.dat", i)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				if cerr := a.Close(); cerr != nil {
					err = fmt.Errorf("%w (cleanup: %v)", err, cerr)
				}
				return nil, fmt.Errorf("nvme: open device %d: %w", i, err)
			}
			b = fileBackend{f}
		}
		d := &device{back: b, lanes: newLanes(cfg.FCFS)}
		a.devs = append(a.devs, d)
		a.devLabels = append(a.devLabels, fmt.Sprintf("ssd%d", i))
		for li, ln := range d.lanes {
			if li == laneWrite && ln == d.lanes[laneRead] {
				continue // FCFS: one dispatcher drives the shared lane
			}
			a.dispatchers.Go(func() { a.dispatch(ln) })
		}
	}
	return a, nil
}

// Close drains and joins the per-device dispatchers, then releases the
// backing stores. Transfers issued after Close fail with ErrClosed; Close
// is idempotent.
func (a *Array) Close() error {
	a.closeOnce.Do(func() {
		for _, d := range a.devs {
			for li, ln := range d.lanes {
				if ln == nil || (li == laneWrite && ln == d.lanes[laneRead]) {
					continue
				}
				ln.mu.Lock()
				ln.closed = true
				ln.mu.Unlock()
				ln.cond.Broadcast()
			}
		}
		a.dispatchers.Wait()
		for i, d := range a.devs {
			if err := d.back.Close(); err != nil && a.closeErr == nil {
				a.closeErr = fmt.Errorf("nvme: close device %d: %w", i, err)
			}
		}
	})
	return a.closeErr
}

// InjectFault makes device dev fail all subsequent I/O with err (nil clears
// the fault). It exists for failure-injection tests.
func (a *Array) InjectFault(dev int, err error) {
	a.InjectFaultAfter(dev, 0, err)
}

// InjectFaultAfter arms device dev to fail chunk I/O with err once ops more
// chunk operations have completed on it — the deterministic way to break an
// asynchronous pipeline mid-flight (the first ops chunks of a step succeed,
// the next fails while later compute is already running). A nil err clears
// any armed or active fault.
func (a *Array) InjectFaultAfter(dev, ops int, err error) {
	if dev < 0 || dev >= len(a.devs) {
		return
	}
	d := a.devs[dev]
	d.mu.Lock()
	d.fault = err
	d.faultDelay = ops
	d.mu.Unlock()
}

// Put stores data under key, replacing any previous object: Start then
// Wait, so data may be reused as soon as Put returns. An overwrite reuses the
// object's chunks in place, and more after them if it outgrows them; if it
// fails partway, the stored object's contents are undefined (with Checksums
// enabled, later reads fail with ErrCorrupt).
func (a *Array) Put(key string, data []byte) error {
	return a.Start(key, data, true).Wait()
}

// spanLanes are the directions' span lanes, indexed laneRead/laneWrite.
var spanLanes = [2]string{obs.LaneNVMeRead, obs.LaneNVMeWrite}

// Start begins moving buf to (write) or from the object key and returns its
// ticket. A write lays a missing object out afresh and keeps a stored one's
// chunks, adding some after them if it outgrows them, and is stored —
// visible to a later Start — once waited on; a read of a missing object or
// into a buffer of another size moves nothing and fails at Wait. An untimed
// small transfer runs inline; anything else is one stride per device on the
// lanes. buf is the transfer's until Wait returns, and a key must not be
// written while another transfer of it is in flight.
func (a *Array) Start(key string, buf []byte, write bool) *Ticket {
	x := a.xpool.get(len(a.devs))
	x.a, x.key, x.buf, x.write, x.lane = a, key, buf, write, spanLanes[dir(write)]
	x.tr, x.o, x.start = a.tracer.Load(), a.obsv.Load(), time.Now()
	a.mu.RLock()
	obj, ok := a.objs[key]
	a.mu.RUnlock()
	switch {
	case write:
		// An overwrite keeps the object's chunks while they suffice: a state
		// piece's size moves with its escapes every step, and it is laid out
		// again only when it outgrows every size it has had.
		if x.kept = len(obj.chunks); a.stripes(len(buf)) > x.kept {
			obj.chunks = a.grow(obj.chunks, a.stripes(len(buf)))
		}
		obj.size = len(buf)
		if a.cfg.Checksums {
			obj.crc = crc32.Checksum(buf, crcTable)
		}
	case !ok:
		x.err = fmt.Errorf("%w: %q", ErrNotFound, key)
	case len(buf) != obj.size:
		x.err = fmt.Errorf("nvme: ReadInto %q: dst %d bytes, object %d", key, len(buf), obj.size)
	}
	if x.err != nil { // nothing to move
		x.left.Store(1)
		x.done(nil)
		return x
	}
	x.obj, x.bw = obj, a.cfg.ReadBW
	if write {
		x.bw = a.cfg.WriteBW
	}
	foldMax(&a.peakInFlight[dir(write)], a.inFlight[dir(write)].Add(1))

	// Chunks are allocated round-robin, so stride w — chunk indexes w, w+D,
	// w+2D, ... — touches exactly one device. Timed transfers are one stride
	// item per device on its dispatch lane (sched.go), allocating nothing,
	// and so are file-backed ones: a stride is a system call the caller need
	// not wait out. Untimed small ones in memory skip the queue: there is
	// nothing to schedule, and the dispatcher round-trip buys nothing below
	// ~memcpy scale.
	workers := min(len(a.devs), a.stripes(obj.size))
	x.queued = x.bw > 0 || a.cfg.OpLatency > 0 || a.cfg.Dir != "" || (workers > 1 && obj.size > inlineTransferMax)
	x.left.Store(int32(workers) + 1)
	for w := range workers {
		it := &x.items[w]
		it.x, it.w = x, w
		if x.queued {
			a.enqueue(a.devs[obj.chunks[w].dev].lanes[dir(write)], it)
			continue
		}
		var err error
		if x.err == nil { // an inline stride that failed ends the transfer
			x.tr.Do(x.lane, a.devLabels[obj.chunks[w].dev], func() { err = a.runStride(nil, it) })
		}
		x.done(err)
	}
	if !x.queued {
		a.inFlight[dir(write)].Add(-1)
	}
	x.done(nil)
	return x
}

// Wait blocks until the transfer has finished and settles it once — a write
// that succeeded is stored, the chunks a failed one added are released (a
// failed new object is not stored), a read that arrived is verified — and
// returns its error, which names the key and, for a device fault, the
// device. Its span and latency end at the last stride's finish, not at
// Wait. The counters and observers count every object that moved, read
// bytes whether or not they verify, so the ledger and the counters
// reconcile after a corrupt read too. x is recycled.
func (x *Ticket) Wait() error {
	<-x.fin
	a, key, obj, write, err := x.a, x.key, x.obj, x.write, x.err
	if x.tr != nil {
		x.tr.Interval(x.lane, key, x.start, x.end)
		if x.alsoLane != "" {
			x.tr.Interval(x.alsoLane, x.alsoName, x.start, x.end)
		}
	}
	if x.queued {
		a.inFlight[dir(write)].Add(-1)
	}
	switch {
	case err != nil:
		if write {
			a.releaseChunks(obj.chunks[x.kept:])
		}
		a.xpool.put(x)
		return err
	case write:
		a.mu.Lock()
		a.objs[key] = obj
		a.mu.Unlock()
	default:
		err = a.verify(key, obj, x.buf)
	}
	if x.o != nil {
		x.o.note(key, int64(obj.size), write, x.end.Sub(x.start))
	}
	a.statMu.Lock()
	a.bytes[dir(write)] += int64(obj.size)
	a.ops[dir(write)]++
	if write && len(obj.chunks) > x.kept {
		a.layouts++
	}
	a.statMu.Unlock()
	a.xpool.put(x)
	return err
}

// grow lists n chunks in all: chunks, then fresh stripe-sized ones after
// them, in chunks' array when it has room, else in a new one with room for
// half as many again — so a state piece whose planes turn raw, up to 1.5×
// the bytes, grows without allocating. Chunk i lies on device (first + i)
// mod the device count, first being chunk 0's: stride w is one device. A
// new object starts the smallest step of at least n devices on from the
// last one that is coprime with the device count, so a run of equal objects
// puts their short last chunks on every device in turn: stepping by n would
// land all of them on the same few when n shares a factor with the count.
func (a *Array) grow(chunks []chunkRef, n int) []chunkRef {
	if cap(chunks) < n {
		chunks = append(make([]chunkRef, 0, n+n/2), chunks...)
	}
	first := 0
	if len(chunks) > 0 {
		first = chunks[0].dev
	} else {
		step := n
		for gcd(step, len(a.devs)) != 1 {
			step++
		}
		a.mu.Lock()
		first, a.nextRR = a.nextRR, (a.nextRR+step)%len(a.devs)
		a.mu.Unlock()
	}
	for i := len(chunks); i < n; i++ {
		dev := (first + i) % len(a.devs)
		chunks = append(chunks, chunkRef{dev: dev, off: a.devs[dev].alloc(a.cfg.StripeSize)})
	}
	return chunks
}

// stripes is how many chunks an object of size bytes is laid out on.
func (a *Array) stripes(size int) int { return (size + a.cfg.StripeSize - 1) / a.cfg.StripeSize }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// verify checks an object's checksum when enabled.
func (a *Array) verify(key string, obj object, data []byte) error {
	if !a.cfg.Checksums {
		return nil
	}
	if got := crc32.Checksum(data, crcTable); got != obj.crc {
		return fmt.Errorf("%w: %q (crc %08x, want %08x)", ErrCorrupt, key, got, obj.crc)
	}
	return nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ReadInto reads key into dst, which must have the object's exact size:
// Start then Wait.
func (a *Array) ReadInto(key string, dst []byte) error {
	return a.Start(key, dst, false).Wait()
}

// delete removes key, if stored, and frees its chunks.
func (a *Array) delete(key string) {
	a.mu.Lock()
	obj, ok := a.objs[key]
	delete(a.objs, key)
	a.mu.Unlock()
	if ok {
		a.releaseChunks(obj.chunks)
	}
}

// Stats reports cumulative traffic, without allocating: a step samples it.
func (a *Array) Stats() Stats {
	a.statMu.Lock()
	s := Stats{
		BytesRead:    units.Bytes(a.bytes[laneRead]),
		BytesWritten: units.Bytes(a.bytes[laneWrite]),
		ReadOps:      a.ops[laneRead],
		WriteOps:     a.ops[laneWrite],
		Layouts:      a.layouts,
	}
	a.statMu.Unlock()
	s.PeakReadsInFlight = a.peakInFlight[laneRead].Load()
	s.PeakWritesInFlight = a.peakInFlight[laneWrite].Load()
	a.mu.RLock()
	s.Objects = len(a.objs)
	a.mu.RUnlock()
	return s
}

func (a *Array) releaseChunks(chunks []chunkRef) {
	for _, c := range chunks {
		a.devs[c.dev].release(c.off)
	}
}

// alloc reserves one stripe-sized chunk on the device: a freed one if there
// is one, else a fresh one past the high-water mark.
func (d *device) alloc(stripe int) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if m := len(d.free); m > 0 {
		off := d.free[m-1]
		d.free = d.free[:m-1]
		return off
	}
	off := d.next
	d.next += int64(stripe)
	return off
}

// release returns a chunk to the device's free list.
func (d *device) release(off int64) {
	d.mu.Lock()
	d.free = append(d.free, off)
	d.mu.Unlock()
}

// chunkIO performs one chunk's read or write on a device, honoring faults;
// runStride names the key and the device in its error.
func (a *Array) chunkIO(dev int, off int64, p []byte, write bool) error {
	d := a.devs[dev]
	d.mu.Lock()
	var err error
	if d.fault != nil {
		if d.faultDelay > 0 {
			d.faultDelay--
		} else {
			err = d.fault
		}
	}
	if err == nil {
		if write {
			err = d.back.WriteAt(p, off)
		} else {
			err = d.back.ReadAt(p, off)
		}
	}
	d.mu.Unlock()
	return err
}

// inlineTransferMax is the largest untimed in-memory object moved inline on
// the caller; above it, parallel memcpy across devices is worth the lanes.
const inlineTransferMax = 256 << 10

// memBackend is a growable in-memory device.
type memBackend struct {
	data []byte
}

// ensure extends the device to n bytes, growing the backing array
// geometrically so a run of fresh chunk allocations costs amortized O(1)
// copies rather than one whole-device copy per chunk.
func (m *memBackend) ensure(n int64) {
	if int64(len(m.data)) >= n {
		return
	}
	if int64(cap(m.data)) < n {
		grown := make([]byte, len(m.data), max(n, 2*int64(cap(m.data))))
		copy(grown, m.data)
		m.data = grown
	}
	m.data = m.data[:n]
}

func (m *memBackend) ReadAt(p []byte, off int64) error {
	m.ensure(off + int64(len(p)))
	copy(p, m.data[off:])
	return nil
}

func (m *memBackend) WriteAt(p []byte, off int64) error {
	m.ensure(off + int64(len(p)))
	copy(m.data[off:], p)
	return nil
}

func (m *memBackend) Close() error { return nil }

// fileBackend is a device backed by one file.
type fileBackend struct{ f *os.File }

func (fb fileBackend) ReadAt(p []byte, off int64) error {
	_, err := fb.f.ReadAt(p, off)
	return err
}

func (fb fileBackend) WriteAt(p []byte, off int64) error {
	_, err := fb.f.WriteAt(p, off)
	return err
}

func (fb fileBackend) Close() error { return fb.f.Close() }
