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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ratel/internal/obs"
	"ratel/internal/units"
)

// DefaultStripeSize is the chunk size objects are striped at.
const DefaultStripeSize = 1 << 20

// ErrNotFound is returned when reading a key that was never written.
var ErrNotFound = errors.New("nvme: object not found")

// Config describes an array.
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
	// HostCap, when non-zero, throttles the aggregate of all devices.
	HostCap units.BytesPerSecond
	// OpLatency, when non-zero, adds a fixed per-chunk access latency on
	// top of the bandwidth throttle (NVMe reads cost tens of microseconds
	// before the first byte arrives).
	OpLatency time.Duration
	// Checksums, when true, stores a CRC-32C per object and verifies it on
	// every read, failing with ErrCorrupt on mismatch.
	Checksums bool
	// Mirror, when true, writes every chunk to a second device (RAID-1
	// style); reads fall back to the mirror when the primary fails.
	// Requires at least two devices and halves usable capacity.
	Mirror bool
	// DeviceCapacity, when > 0, caps each device's allocated bytes; Put
	// fails with ErrNoSpace when a chunk cannot be placed.
	DeviceCapacity units.Bytes
	// Sched enables the priority-aware transfer scheduler: duplex per-device
	// queues (reads dispatch independently of writes), class-priority
	// dequeue with anti-starvation aging, and coalescing of adjacent stripe
	// submissions. The training engine always sets it. Off, devices run a
	// single FCFS queue — arrival order, reads behind writes — the
	// contention baseline tests compare against. Either way transfers
	// complete before the API call returns, so stored data is identical in
	// both modes.
	Sched bool
	// SchedOrder, when non-nil, overrides the dequeue priority (must name
	// every class exactly once). Default:
	// fetch > opt-read > writeback > write-behind.
	SchedOrder []Class
}

// ErrCorrupt is returned when a checksummed object fails verification.
var ErrCorrupt = errors.New("nvme: object corrupted")

// ErrNoSpace is returned when a device's capacity is exhausted.
var ErrNoSpace = errors.New("nvme: device full")

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
	// FCFS mode points both at one shared lane (reads queue behind writes);
	// duplex mode gives each direction its own lane and dispatcher.
	lanes [2]*ioLane
}

// laneFor picks the dispatch lane for a transfer direction.
func (d *device) laneFor(write bool) *ioLane {
	if write {
		return d.lanes[laneWrite]
	}
	return d.lanes[laneRead]
}

// backend is the byte-addressed storage under a device.
type backend interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Close() error
}

// chunkRef locates one stripe chunk (and its mirror when enabled).
type chunkRef struct {
	dev int
	off int64
	n   int
	// mirrorDev/mirrorOff locate the RAID-1 copy; mirrorDev is -1 when
	// mirroring is off.
	mirrorDev int
	mirrorOff int64
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

	// Transfer-scheduler state: resolved mode, dequeue priority, aging
	// bound, the dispatcher join group, and the recycled transfer headers.
	schedOn    bool
	classOrder []Class
	aging      time.Duration
	dispWG     sync.WaitGroup
	xpool      xferPool
	sched      [NumClasses]schedClassCounters

	closeOnce sync.Once
	closeErr  error

	hostMu    sync.Mutex // serializes host-link throttle accounting
	hostSlot  time.Time  // end of the host link's last modeled busy interval
	hostCarry float64    // sub-nanosecond remainder of host-cap charges

	tracer atomic.Pointer[obs.Tracer]     // optional wall-clock span recorder
	obsv   atomic.Pointer[arrayObservers] // optional latency/flow instruments

	statMu       sync.Mutex
	bytesRead    int64
	bytesWritten int64
	readOps      int64
	writeOps     int64
	perDevBytes  []int64

	// Per-direction in-flight object transfers (reads: Get/ReadInto;
	// writes: Put) and their cumulative high-water marks. The peaks expose
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
	// ReadOps / WriteOps count completed object-level operations (Get and
	// ReadInto; Put).
	ReadOps, WriteOps int64
	// ReadsInFlight / WritesInFlight are the object transfers in progress at
	// the instant of the snapshot; PeakReadsInFlight / PeakWritesInFlight
	// are the cumulative high-water marks — the concurrency the caller's
	// I/O pipeline actually achieved per direction.
	ReadsInFlight, WritesInFlight         int64
	PeakReadsInFlight, PeakWritesInFlight int64
	// PerDeviceBytes is total traffic (read+write) per device, exposing the
	// stripe balance.
	PerDeviceBytes []units.Bytes
	// Objects is the number of stored objects.
	Objects int
	// StoredBytes is the logical size of all stored objects.
	StoredBytes units.Bytes
}

// SetTracer installs a wall-clock span tracer: every Put records a span on
// obs.LaneNVMeWrite and every Get/ReadInto on obs.LaneNVMeRead (named by
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
	if cfg.Mirror && cfg.Devices < 2 {
		return nil, fmt.Errorf("nvme: mirroring needs at least two devices, got %d", cfg.Devices)
	}
	order := cfg.SchedOrder
	if order == nil {
		order = DefaultSchedOrder()
	} else {
		if len(order) != NumClasses {
			return nil, fmt.Errorf("nvme: sched order names %d classes, want %d", len(order), NumClasses)
		}
		var seen [NumClasses]bool
		for _, c := range order {
			if c >= NumClasses {
				return nil, fmt.Errorf("nvme: sched order has invalid class %d", c)
			}
			if seen[c] {
				return nil, fmt.Errorf("nvme: sched order names %q twice", c)
			}
			seen[c] = true
		}
	}
	a := &Array{
		cfg:         cfg,
		objs:        make(map[string]object),
		perDevBytes: make([]int64, cfg.Devices),
		schedOn:     cfg.Sched,
		classOrder:  order,
		aging:       DefaultSchedAging,
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
		d := &device{back: b}
		if cfg.Sched {
			d.lanes[laneRead] = newIOLane()
			d.lanes[laneWrite] = newIOLane()
		} else {
			shared := newIOLane()
			d.lanes[laneRead] = shared
			d.lanes[laneWrite] = shared
		}
		a.devs = append(a.devs, d)
		a.devLabels = append(a.devLabels, fmt.Sprintf("ssd%d", i))
		for li, ln := range d.lanes {
			if li == laneWrite && ln == d.lanes[laneRead] {
				continue // FCFS: one dispatcher drives the shared lane
			}
			a.dispWG.Add(1)
			go a.dispatch(ln)
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
		a.dispWG.Wait()
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
//
// Put schedules as ClassWriteback; use PutClass to tag other traffic.
func (a *Array) Put(key string, data []byte) error {
	return a.PutClass(key, data, ClassWriteback)
}

// PutClass is Put with an explicit scheduler traffic class.
func (a *Array) PutClass(key string, data []byte, class Class) error {
	if class >= NumClasses {
		return fmt.Errorf("nvme: put %q: invalid class %d", key, class)
	}
	a.mu.RLock()
	obj, ok := a.objs[key]
	a.mu.RUnlock()
	// A same-size overwrite keeps the object's chunks (the steady state of
	// every training step); anything else is stored on fresh ones.
	fresh := !ok || obj.size != len(data)
	if fresh {
		if err := a.Delete(key); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		var err error
		if obj, err = a.allocObject(len(data)); err != nil {
			return fmt.Errorf("nvme: put %q: %w", key, err)
		}
	}
	if a.cfg.Checksums {
		obj.crc = crc32.Checksum(data, crcTable)
	}
	o := a.obsv.Load()
	var opStart time.Time
	if o != nil {
		opStart = time.Now()
	}
	sp := a.tracer.Load().StartSpan(obs.LaneNVMeWrite, key)
	err := a.transfer(obj, data, true, class)
	sp.End()
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
// allocated round-robin across the devices (each with its RAID-1 copy on
// the next device when mirroring), so striping yields real parallel
// bandwidth. On failure every chunk already taken is returned.
func (a *Array) allocObject(size int) (object, error) {
	stripe := a.cfg.StripeSize
	n := (size + stripe - 1) / stripe
	obj := object{size: size, chunks: make([]chunkRef, 0, n)}

	a.mu.Lock()
	start := a.nextRR
	a.nextRR = (a.nextRR + n) % len(a.devs)
	a.mu.Unlock()

	for i := 0; i < n; i++ {
		dev := (start + i) % len(a.devs)
		off, err := a.allocChunk(dev)
		if err != nil {
			a.releaseChunks(obj)
			return object{}, err
		}
		ref := chunkRef{dev: dev, off: off, n: min(stripe, size-i*stripe), mirrorDev: -1}
		if a.cfg.Mirror {
			mdev := (dev + 1) % len(a.devs)
			moff, err := a.allocChunk(mdev)
			if err != nil {
				a.releaseChunks(obj)
				a.devs[dev].release(off)
				return object{}, fmt.Errorf("mirror: %w", err)
			}
			ref.mirrorDev, ref.mirrorOff = mdev, moff
		}
		obj.chunks = append(obj.chunks, ref)
	}
	return obj, nil
}

// Size reports the stored size of key.
func (a *Array) Size(key string) (units.Bytes, error) {
	a.mu.RLock()
	obj, ok := a.objs[key]
	a.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return units.Bytes(obj.size), nil
}

// Has reports whether key is stored.
func (a *Array) Has(key string) bool {
	a.mu.RLock()
	_, ok := a.objs[key]
	a.mu.RUnlock()
	return ok
}

// Get reads the object stored under key into a fresh buffer. It schedules
// as ClassCriticalFetch, like ReadInto.
func (a *Array) Get(key string) ([]byte, error) {
	size, err := a.Size(key)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, size)
	if err := a.ReadInto(key, dst); err != nil {
		return nil, err
	}
	return dst, nil
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
// avoids allocation on the engine's hot swap-in path, and schedules as
// ClassCriticalFetch; use ReadIntoClass to tag other traffic.
func (a *Array) ReadInto(key string, dst []byte) error {
	return a.ReadIntoClass(key, dst, ClassCriticalFetch)
}

// ReadIntoClass is ReadInto with an explicit scheduler traffic class.
func (a *Array) ReadIntoClass(key string, dst []byte, class Class) error {
	if class >= NumClasses {
		return fmt.Errorf("nvme: read %q: invalid class %d", key, class)
	}
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
	sp := a.tracer.Load().StartSpan(obs.LaneNVMeRead, key)
	if err := a.transfer(obj, dst, false, class); err != nil {
		sp.End()
		return err
	}
	sp.End()
	if o != nil {
		o.note(key, int64(obj.size), false, time.Since(opStart))
	}
	if err := a.verify(key, obj, dst); err != nil {
		return err
	}
	a.statMu.Lock()
	a.bytesRead += int64(obj.size)
	a.readOps++
	a.statMu.Unlock()
	return nil
}

// Delete removes key and frees its chunks.
func (a *Array) Delete(key string) error {
	a.mu.Lock()
	obj, ok := a.objs[key]
	if ok {
		delete(a.objs, key)
	}
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	a.releaseChunks(obj)
	return nil
}

// Keys returns the stored keys in sorted order.
func (a *Array) Keys() []string {
	a.mu.RLock()
	keys := make([]string, 0, len(a.objs))
	for k := range a.objs {
		keys = append(keys, k)
	}
	a.mu.RUnlock()
	sort.Strings(keys)
	return keys
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
	s.ReadsInFlight = a.readsInFlight.Load()
	s.WritesInFlight = a.writesInFlight.Load()
	s.PeakReadsInFlight = a.peakReads.Load()
	s.PeakWritesInFlight = a.peakWrites.Load()
	a.mu.RLock()
	s.Objects = len(a.objs)
	for _, o := range a.objs {
		s.StoredBytes += units.Bytes(o.size)
	}
	a.mu.RUnlock()
	return s
}

func (a *Array) releaseChunks(obj object) {
	for _, c := range obj.chunks {
		a.devs[c.dev].release(c.off)
		if c.mirrorDev >= 0 {
			a.devs[c.mirrorDev].release(c.mirrorOff)
		}
	}
}

// allocChunk reserves one stripe-sized chunk on a device, honoring the
// capacity cap.
func (a *Array) allocChunk(dev int) (int64, error) {
	d := a.devs[dev]
	d.mu.Lock()
	defer d.mu.Unlock()
	if m := len(d.free); m > 0 {
		off := d.free[m-1]
		d.free = d.free[:m-1]
		return off, nil
	}
	if cap := int64(a.cfg.DeviceCapacity); cap > 0 && d.next+int64(a.cfg.StripeSize) > cap {
		return 0, fmt.Errorf("%w: device %d at %d of %d bytes", ErrNoSpace, dev, d.next, cap)
	}
	off := d.next
	d.next += int64(a.cfg.StripeSize)
	return off, nil
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
func (a *Array) transfer(obj object, buf []byte, write bool, class Class) error {
	cur, peak := &a.readsInFlight, &a.peakReads
	if write {
		cur, peak = &a.writesInFlight, &a.peakWrites
	}
	inflightEnter(cur, peak)
	defer cur.Add(-1)

	nchunks := len(obj.chunks)
	if nchunks == 0 {
		a.throttleHost(obj.size)
		return nil
	}
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
			if err := a.runStrideInline(obj, buf, write, w, lane, tr); err != nil {
				return err
			}
		}
		a.throttleHost(obj.size)
		return nil
	}
	x := a.xpool.get(ndevs)
	x.a, x.obj, x.buf, x.write = a, obj, buf, write
	x.class, x.bw, x.lane, x.tr = class, bw, lane, tr
	x.wg.Add(workers)
	for w := 0; w < workers; w++ {
		it := &x.items[w]
		it.x = x
		it.w = w
		a.enqueue(a.devs[obj.chunks[w].dev].laneFor(write), it)
	}
	x.wg.Wait()
	err := x.err
	a.xpool.put(x)
	if err != nil {
		return err
	}
	a.throttleHost(obj.size)
	return nil
}

// runStrideInline moves one device stride synchronously on the caller's
// goroutine — the untimed fast path, where no throttle charges apply.
func (a *Array) runStrideInline(obj object, buf []byte, write bool, w int, lane string, tr *obs.Tracer) error {
	dev := obj.chunks[w].dev
	devSpan := tr.StartSpan(lane, a.devLabels[dev])
	defer devSpan.End()
	ndevs := len(a.devs)
	stripe := a.cfg.StripeSize
	var devBytes int64
	for i := w; i < len(obj.chunks); i += ndevs {
		c := obj.chunks[i]
		if err := a.chunkIOMirrored(c, buf[i*stripe:i*stripe+c.n], write); err != nil {
			return err
		}
		devBytes += int64(c.n)
	}
	a.statMu.Lock()
	a.perDevBytes[dev] += devBytes
	a.statMu.Unlock()
	return nil
}

// chunkIOMirrored performs one chunk's I/O with the RAID-1 semantics: reads
// fall back to the mirror when the primary fails; writes propagate to the
// mirror after the primary succeeds.
func (a *Array) chunkIOMirrored(c chunkRef, p []byte, write bool) error {
	err := a.chunkIO(c.dev, c.off, p, write)
	switch {
	case err != nil && !write && c.mirrorDev >= 0:
		if merr := a.chunkIO(c.mirrorDev, c.mirrorOff, p, false); merr != nil {
			return fmt.Errorf("nvme: primary failed (%v) and mirror failed: %w", err, merr)
		}
	case err != nil:
		return err
	case write && c.mirrorDev >= 0:
		if merr := a.chunkIO(c.mirrorDev, c.mirrorOff, p, true); merr != nil {
			return fmt.Errorf("nvme: mirror write: %w", merr)
		}
	}
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

// throttleHost enforces the aggregate host-link cap with the same
// slot+carry model as the device lanes: the busy interval is advanced under
// the lock but the sleep happens outside it, so concurrent transfers pace
// against shared accounting instead of serializing on each other's sleeps,
// and the fractional-nanosecond carry keeps streams of tiny transfers from
// rounding down to free.
func (a *Array) throttleHost(n int) {
	if a.cfg.HostCap <= 0 || n <= 0 {
		return
	}
	a.hostMu.Lock()
	total := a.hostCarry + units.TransferNanos(units.Bytes(n), a.cfg.HostCap)
	dur := time.Duration(total)
	a.hostCarry = total - float64(dur)
	now := time.Now()
	if a.hostSlot.Before(now) {
		a.hostSlot = now
	}
	a.hostSlot = a.hostSlot.Add(dur)
	wait := a.hostSlot.Sub(now)
	a.hostMu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
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

// Scrub reads and verifies every stored object, returning the keys that
// fail checksum verification or cannot be read. It requires Checksums to be
// enabled for corruption (as opposed to hard I/O errors) to be detectable.
func (a *Array) Scrub() (bad []string, err error) {
	if !a.cfg.Checksums {
		return nil, fmt.Errorf("nvme: scrub requires checksums")
	}
	for _, key := range a.Keys() {
		if _, rerr := a.Get(key); rerr != nil {
			bad = append(bad, key)
		}
	}
	return bad, nil
}
