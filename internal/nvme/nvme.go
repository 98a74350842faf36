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
	// stripe submissions. Both serve each lane in arrival order, and
	// transfers complete before the API call returns, so stored data is
	// identical in both modes.
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

// chunkRef locates one stripe chunk.
type chunkRef struct {
	dev int
	off int64
	n   int
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

	statMu       sync.Mutex
	bytesRead    int64
	bytesWritten int64
	readOps      int64
	writeOps     int64
	perDevBytes  []int64

	// Per-direction in-flight object transfers (reads: ReadInto; writes:
	// Put) and their cumulative high-water marks. The peaks expose
	// the depth the engine's write-behind queue and read-ahead window
	// actually reached on the array.
	readsInFlight  atomic.Int64
	writesInFlight atomic.Int64
	peakReads      atomic.Int64
	peakWrites     atomic.Int64
}

// Stats reports cumulative traffic through the array.
type Stats struct {
	BytesRead    units.Bytes
	BytesWritten units.Bytes
	// ReadOps / WriteOps count completed object-level operations (ReadInto;
	// Put).
	ReadOps, WriteOps int64
	// PeakReadsInFlight / PeakWritesInFlight are the cumulative high-water
	// marks of object transfers in progress — the concurrency the caller's
	// I/O pipeline actually achieved per direction.
	PeakReadsInFlight, PeakWritesInFlight int64
	// PerDeviceBytes is total traffic (read+write) per device, exposing the
	// stripe balance.
	PerDeviceBytes []units.Bytes
	// Objects is the number of stored objects.
	Objects int
}

// SetTracer installs a wall-clock span tracer: every Put records a span on
// obs.LaneNVMeWrite and every ReadInto on obs.LaneNVMeRead (named by
// object key), plus one per-device span per transfer (named "ssdN") so the
// stripe parallelism is visible on the timeline. A nil tracer disables
// tracing. Safe to call concurrently with I/O.
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
// installed is two time stamps and a few atomic adds — no allocation —
// and zero when never called. Safe to call concurrently with I/O.
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

// Put stores data under key, replacing any previous object. data is
// borrowed only for the duration of the call and never retained, so callers
// may recycle it immediately after Put returns.
//
// Overwriting a key with an object of the same size reuses the existing
// chunk layout in place — no chunk free/realloc churn on the steady-state
// swap path, where every block's blob has a fixed size. If the in-place
// write fails partway, the stored object's contents are undefined (with
// Checksums enabled, subsequent reads fail with ErrCorrupt).
func (a *Array) Put(key string, data []byte) error {
	a.mu.RLock()
	obj, ok := a.objs[key]
	a.mu.RUnlock()
	// A same-size overwrite keeps the object's chunks (the steady state of
	// every training step); anything else is stored on fresh ones.
	fresh := !ok || obj.size != len(data)
	if fresh {
		a.delete(key)
		obj = a.allocObject(len(data))
	}
	if a.cfg.Checksums {
		obj.crc = crc32.Checksum(data, crcTable)
	}
	o := a.obsv.Load()
	var opStart time.Time
	if o != nil {
		opStart = time.Now()
	}
	var err error
	a.tracer.Load().Do(obs.LaneNVMeWrite, key, func() { err = a.transfer(obj, data, true) })
	if err != nil {
		if fresh {
			a.releaseChunks(obj)
		}
		return err
	}
	if o != nil {
		o.note(key, int64(len(data)), true, time.Since(opStart))
	}
	a.mu.Lock()
	a.objs[key] = obj
	a.mu.Unlock()
	a.statMu.Lock()
	a.bytesWritten += int64(len(data))
	a.writeOps++
	a.statMu.Unlock()
	return nil
}

// allocObject lays out a new object of size bytes: stripe-sized chunks
// allocated round-robin across the devices, so striping yields real
// parallel bandwidth. The next object starts the smallest step of at least n
// devices on that is coprime with the device count, so a run of equal
// objects puts their short last chunks on every device in turn: stepping by
// n itself would land all of them on the same few when n shares a factor
// with the device count.
func (a *Array) allocObject(size int) object {
	stripe := a.cfg.StripeSize
	n := (size + stripe - 1) / stripe
	obj := object{size: size, chunks: make([]chunkRef, 0, n)}

	step := n
	for gcd(step, len(a.devs)) != 1 {
		step++
	}
	a.mu.Lock()
	start := a.nextRR
	a.nextRR = (a.nextRR + step) % len(a.devs)
	a.mu.Unlock()

	for i := 0; i < n; i++ {
		dev := (start + i) % len(a.devs)
		obj.chunks = append(obj.chunks, chunkRef{dev: dev, off: a.devs[dev].alloc(stripe), n: min(stripe, size-i*stripe)})
	}
	return obj
}

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

// ReadInto reads key into dst, which must have the object's exact size. It
// avoids allocation on the engine's hot swap-in path.
func (a *Array) ReadInto(key string, dst []byte) error {
	a.mu.RLock()
	obj, ok := a.objs[key]
	a.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if len(dst) != obj.size {
		return fmt.Errorf("nvme: ReadInto %q: dst %d bytes, object %d", key, len(dst), obj.size)
	}
	o := a.obsv.Load()
	var opStart time.Time
	if o != nil {
		opStart = time.Now()
	}
	var err error
	a.tracer.Load().Do(obs.LaneNVMeRead, key, func() { err = a.transfer(obj, dst, false) })
	if err != nil {
		return err
	}
	// The bytes crossed from the devices whether or not they verify: the
	// ledger and the counters both count them, so they reconcile after a
	// corrupt read too.
	if o != nil {
		o.note(key, int64(obj.size), false, time.Since(opStart))
	}
	a.statMu.Lock()
	a.bytesRead += int64(obj.size)
	a.readOps++
	a.statMu.Unlock()
	return a.verify(key, obj, dst)
}

// delete removes key, if stored, and frees its chunks.
func (a *Array) delete(key string) {
	a.mu.Lock()
	obj, ok := a.objs[key]
	delete(a.objs, key)
	a.mu.Unlock()
	if ok {
		a.releaseChunks(obj)
	}
}

// Stats reports cumulative traffic.
func (a *Array) Stats() Stats {
	a.statMu.Lock()
	s := Stats{
		BytesRead:      units.Bytes(a.bytesRead),
		BytesWritten:   units.Bytes(a.bytesWritten),
		ReadOps:        a.readOps,
		WriteOps:       a.writeOps,
		PerDeviceBytes: make([]units.Bytes, len(a.perDevBytes)),
	}
	for i, b := range a.perDevBytes {
		s.PerDeviceBytes[i] = units.Bytes(b)
	}
	a.statMu.Unlock()
	s.PeakReadsInFlight = a.peakReads.Load()
	s.PeakWritesInFlight = a.peakWrites.Load()
	a.mu.RLock()
	s.Objects = len(a.objs)
	a.mu.RUnlock()
	return s
}

func (a *Array) releaseChunks(obj object) {
	for _, c := range obj.chunks {
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

// chunkIO performs one chunk's read or write on a device, honoring faults.
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
	if err != nil {
		return fmt.Errorf("nvme: device %d: %w", dev, err)
	}
	return nil
}

// inlineTransferMax is the largest untimed object moved without goroutine
// fan-out; above it, parallel memcpy across devices is worth the spawns.
const inlineTransferMax = 256 << 10

// transfer moves all chunks of obj between buf and the devices, applying
// the configured throttles.
//
// Chunks are allocated round-robin, so chunk indexes congruent mod the
// device count share a device: stride w covers indexes w, w+D, w+2D, ...
// and touches exactly one device. Timed transfers split into one stride
// item per device, enqueued on the device's dispatch lane and executed by
// its persistent dispatcher (see sched.go) — replacing the old per-call
// goroutine spawn, so the steady-state path allocates nothing. Untimed
// small transfers skip the queue entirely: without bandwidth or latency
// sleeps there is no contention to schedule, and the dispatcher round-trip
// buys nothing below ~memcpy scale.
func (a *Array) transfer(obj object, buf []byte, write bool) error {
	cur, peak := &a.readsInFlight, &a.peakReads
	if write {
		cur, peak = &a.writesInFlight, &a.peakWrites
	}
	inflightEnter(cur, peak)
	defer cur.Add(-1)

	nchunks := len(obj.chunks)
	bw := a.cfg.ReadBW
	if write {
		bw = a.cfg.WriteBW
	}

	tr := a.tracer.Load()
	lane := obs.LaneNVMeRead
	if write {
		lane = obs.LaneNVMeWrite
	}
	ndevs := len(a.devs)
	workers := ndevs
	if nchunks < workers {
		workers = nchunks
	}
	if bw <= 0 && a.cfg.OpLatency <= 0 && (workers == 1 || obj.size <= inlineTransferMax) {
		for w := 0; w < workers; w++ {
			var err error
			tr.Do(lane, a.devLabels[obj.chunks[w].dev], func() { err = a.runStrideInline(obj, buf, write, w) })
			if err != nil {
				return err
			}
		}
		return nil
	}
	x := a.xpool.get(ndevs)
	x.obj, x.buf, x.write = obj, buf, write
	x.bw, x.lane, x.tr = bw, lane, tr
	x.wg.Add(workers)
	for w := 0; w < workers; w++ {
		it := &x.items[w]
		it.x = x
		it.w = w
		a.enqueue(a.devs[obj.chunks[w].dev].lanes[dir(write)], it)
	}
	x.wg.Wait()
	err := x.err
	a.xpool.put(x)
	return err
}

// runStrideInline moves one device stride synchronously on the caller's
// goroutine — the untimed fast path, where no throttle charges apply.
func (a *Array) runStrideInline(obj object, buf []byte, write bool, w int) error {
	dev := obj.chunks[w].dev
	ndevs := len(a.devs)
	stripe := a.cfg.StripeSize
	var devBytes int64
	for i := w; i < len(obj.chunks); i += ndevs {
		c := obj.chunks[i]
		if err := a.chunkIO(c.dev, c.off, buf[i*stripe:i*stripe+c.n], write); err != nil {
			return err
		}
		devBytes += int64(c.n)
	}
	a.statMu.Lock()
	a.perDevBytes[dev] += devBytes
	a.statMu.Unlock()
	return nil
}

// inflightEnter increments an in-flight counter and folds the new value
// into its cumulative high-water mark.
func inflightEnter(cur, peak *atomic.Int64) {
	n := cur.Add(1)
	for {
		p := peak.Load()
		if n <= p || peak.CompareAndSwap(p, n) {
			return
		}
	}
}

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
