// Package opt implements the optimizer side of the paper's model-state
// management: mixed-precision Adam with fp32 master weights and moments
// (P32 + OS32, Table II), and an out-of-core variant that streams each
// parameter group's state through a storage backend — the CPU optimizer
// that active gradient offloading (§IV-C) drives.
//
// The out-of-core optimizer is exactly equivalent to the in-memory one for
// any chunking: state round-trips through storage as raw little-endian
// float32, and gradients are consumed in fp16 (G16) in both paths.
package opt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/tensor"
	"ratel/internal/tensor/pool"
	"ratel/internal/tensor/simd"
)

// AdamConfig holds the Adam hyperparameters. A non-zero WeightDecay selects
// decoupled weight decay (AdamW), the variant commonly used for LLM
// fine-tuning.
type AdamConfig struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
}

// DefaultAdam is the conventional Adam configuration used for LLM
// fine-tuning.
func DefaultAdam() AdamConfig {
	return AdamConfig{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// AdamStep applies one bias-corrected Adam update to p32 in place, with
// step t (1-based) and moments m, v. The gradient is consumed as given
// (the engine rounds it to fp16 before handing it over: G16).
//
// Elements update independently, so the slice is cut into chunks sharded
// across the worker pool — the paper's multi-threaded CPU optimizer
// (§IV-C). Results are bit-identical at any thread count.
func AdamStep(cfg AdamConfig, t int, p32, m, v, grad []float32) error {
	if len(p32) != len(m) || len(p32) != len(v) || len(p32) != len(grad) {
		return fmt.Errorf("opt: mismatched state sizes %d/%d/%d/%d", len(p32), len(m), len(v), len(grad))
	}
	if t < 1 {
		return fmt.Errorf("opt: step %d, want >= 1", t)
	}
	k := newAdamCoef(cfg, t)
	work := adamWork(len(p32))
	if pool.InlineWork(work) {
		simd.Adam(k, p32, m, v, grad)
		return nil
	}
	pool.ForWork(len(p32), adamChunkGrain, work, func(lo, hi int) {
		simd.Adam(k, p32[lo:hi], m[lo:hi], v[lo:hi], grad[lo:hi])
	})
	return nil
}

// adamChunkGrain is the minimum parameters per pool chunk: small enough to
// load-balance, large enough that chunk dispatch is noise next to the
// floating-point work.
const adamChunkGrain = 8192

// adamWork estimates an n-parameter update for the pool: ~20 scalar ops per
// element (sqrt included).
func adamWork(n int) int64 { return 20 * int64(n) }

// newAdamCoef gathers one update's scalars for the kernel: the
// hyperparameters, the products of them every element shares, and step t's
// bias corrections.
func newAdamCoef(cfg AdamConfig, t int) simd.AdamCoef {
	return simd.AdamCoef{
		B1: cfg.Beta1, OmB1: 1 - cfg.Beta1, B2: cfg.Beta2, OmB2: 1 - cfg.Beta2,
		B1c: 1 - math.Pow(cfg.Beta1, float64(t)), B2c: 1 - math.Pow(cfg.Beta2, float64(t)),
		LR: cfg.LR, Eps: cfg.Eps, WD: cfg.WeightDecay, LRWD: cfg.LR * cfg.WeightDecay,
	}
}

// adamWireChunk runs the kernel over parameters [lo,hi) of a state object in
// wire form: its P32, M and V planes are updated where they lie, so the object
// is walked once and never staged. The new masters also land in p32 for the
// fp16 install.
func adamWireChunk(k simd.AdamCoef, wire []byte, p32, grad []float32, lo, hi int) {
	nb := len(wire) / 3
	simd.AdamWire(k, wire[4*lo:4*hi], wire[nb+4*lo:nb+4*hi], wire[2*nb+4*lo:2*nb+4*hi], grad[lo:hi], p32[lo:hi])
}

// Store is the storage the out-of-core optimizer streams model states
// through; *nvme.Array satisfies it. Put must not retain data after it
// returns and ReadInto fills dst, which must be exactly the stored object's
// size — the optimizer streams through buffers it owns and reuses.
type Store interface {
	Put(key string, data []byte) error
	ReadInto(key string, dst []byte) error
}

// classedStore is the optional traffic-classed path: a store backed by the
// NVMe transfer scheduler (*nvme.Array) exposes it so the optimizer's state
// streams carry their true priority — reads ahead of the Adam sweep are
// latency-sensitive (ClassOptRead), state writebacks are not
// (ClassWriteback). Stores without classes (MemStore) take the plain
// Put/ReadInto; the bytes moved are identical either way.
type classedStore interface {
	PutClass(key string, data []byte, class nvme.Class) error
	ReadIntoClass(key string, dst []byte, class nvme.Class) error
}

// MemStore is an in-memory Store for tests and the in-memory reference
// optimizer.
type MemStore map[string][]byte

// Put stores a copy of data.
func (s MemStore) Put(key string, data []byte) error {
	s[key] = append([]byte(nil), data...)
	return nil
}

// ReadInto copies the stored bytes into dst, which must have the object's
// exact size.
func (s MemStore) ReadInto(key string, dst []byte) error {
	b, ok := s[key]
	if !ok {
		return fmt.Errorf("opt: memstore: missing %q", key)
	}
	if len(dst) != len(b) {
		return fmt.Errorf("opt: memstore: ReadInto %q: dst %d bytes, object %d", key, len(dst), len(b))
	}
	copy(dst, b)
	return nil
}

// OutOfCoreAdam keeps fp32 master weights and Adam moments in a Store and
// updates one parameter group at a time — the paper's CPU optimizer
// operating on model states homed on NVMe.
//
// A group's state is ONE store object, P32 | M | V back to back as raw
// little-endian fp32 (12 bytes per parameter), so a group update is one
// striped read and one striped write rather than three of each.
type OutOfCoreAdam struct {
	cfg       AdamConfig
	store     Store
	classed   classedStore // store's optional traffic-classed path, nil if absent
	prefix    string
	step      int
	gradScale float64 // loss-scale divisor; 0 or 1 means unscaled
	clipNorm  float64 // per-group L2 clip; 0 disables

	tracer     *obs.Tracer       // optional: records per-chunk Adam spans
	flows      *obs.FlowLedger   // optional: per-edge/purpose byte accounting
	adamLabels map[string]string // group -> "group/opt-adam", precomputed
	keys       map[string]string // group -> state object key, precomputed

	// scr is the update scratch: the staged gradient, the new masters on
	// their way to the fp16 install, and the wire buffer of the synchronous
	// paths, sized to the largest group seen and reused for the optimizer's
	// lifetime. scrMu serializes its users — UpdateGroup, the state
	// pipeline's Adam stage and the checkpoint paths never overlap in the
	// engine, so the lock is uncontended and exists only to keep concurrent
	// misuse safe.
	scrMu sync.Mutex
	scr   struct {
		p32, grad []float32
		wire      []byte
		crc       [4]byte // a checkpoint record's CRC-32C (WriteGroupTo, ImportWire)
	}

	kernelParams atomic.Int64 // params the Adam kernel has updated
	kernelNanos  atomic.Int64 // wall-clock spent inside the Adam kernel
}

// KernelStats reports cumulative CPU-optimizer kernel work: parameters
// updated and wall-clock spent in the Adam kernel — the walk over the state
// object, so its fp32 loads and stores are inside and the store's I/O is
// not. Their quotient is the live Adam params/s rate the metrics registry
// exports and the calibration report compares against
// agoffload.MeasureAdamRate (AdamStep: the same kernel on decoded slices).
func (o *OutOfCoreAdam) KernelStats() (params int64, busy time.Duration) {
	return o.kernelParams.Load(), time.Duration(o.kernelNanos.Load())
}

// SetTracer installs a wall-clock span tracer: every group update records
// one span per parameter group (the paper's per-tensor optimizer chunk) on
// obs.LaneAdam around the Adam kernel, named after the simulator's
// "<group>/opt-adam" task labels so measured and simulated timelines join
// by name. Call before training starts.
func (o *OutOfCoreAdam) SetTracer(tr *obs.Tracer) { o.tracer = tr }

// SetFlowLedger installs a byte-flow ledger: every group update credits
// its gradient staging (fp16 wire bytes, compute→host), its fp16
// parameter install (host→compute), and the fp32 codec traffic of the
// state stream (3 tensors each way). The host↔NVMe bytes themselves are
// accounted by the store (nvme.Array.SetObservers), not here — the two
// views reconcile because the optimizer streams state through the store
// uncompressed. Call before training starts; updates are allocation-free.
func (o *OutOfCoreAdam) SetFlowLedger(l *obs.FlowLedger) { o.flows = l }

// adamLabel returns the group's precomputed span label (built at InitGroup
// so the update hot path never concatenates).
func (o *OutOfCoreAdam) adamLabel(group string) string {
	if l, ok := o.adamLabels[group]; ok {
		return l
	}
	return group
}

// SetClipNorm enables per-group gradient clipping: each parameter group's
// gradient is rescaled so its L2 norm does not exceed n. Note this is
// per-GROUP clipping, not global-norm clipping — the global norm is only
// known once every gradient has arrived, which is exactly the serialization
// active gradient offloading exists to avoid.
func (o *OutOfCoreAdam) SetClipNorm(n float64) error {
	if n < 0 {
		return fmt.Errorf("opt: negative clip norm %v", n)
	}
	o.clipNorm = n
	return nil
}

// NewOutOfCoreAdam creates an optimizer over the given store. prefix
// namespaces its keys.
func NewOutOfCoreAdam(store Store, cfg AdamConfig, prefix string) *OutOfCoreAdam {
	o := &OutOfCoreAdam{cfg: cfg, store: store, prefix: prefix}
	o.classed, _ = store.(classedStore)
	return o
}

// Step reports the number of completed optimizer steps.
func (o *OutOfCoreAdam) Step() int { return o.step }

// stateKey returns the group's store key, building and caching it on first
// use (the hot path must not concatenate per transfer).
func (o *OutOfCoreAdam) stateKey(group string) string {
	if k, ok := o.keys[group]; ok {
		return k
	}
	if o.keys == nil {
		o.keys = make(map[string]string)
	}
	k := o.prefix + "/" + group + "/state"
	o.keys[group] = k
	return k
}

// wireBytes is the size of a group's state object: three fp32 tensors.
func wireBytes(n int) int { return 12 * n }

// InitGroup seeds the store with the group's fp32 masters (from the current
// working weights) and zero moments, and rounds the working weights to fp16
// (the P16 copies the GPU computes with). The state object is built in the
// wire scratch — the one UpdateGroup streams through — so initialization
// warms it to the largest group's size instead of allocating per call.
func (o *OutOfCoreAdam) InitGroup(g nn.ParamGroup) error {
	if o.adamLabels == nil {
		o.adamLabels = make(map[string]string)
	}
	o.adamLabels[g.Name] = g.Name + "/opt-adam"
	key := o.stateKey(g.Name) // precompute the store key off the hot path
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	wire := scratch(&o.scr.wire, wireBytes(g.NumParams()))
	off := 0
	for _, p := range g.Params {
		end := off + 4*len(p.W.Data)
		if err := tensor.ToFP32BytesInto(wire[off:end], p.W.Data); err != nil {
			return fmt.Errorf("opt: init %s: %w", g.Name, err)
		}
		off = end
	}
	clear(wire[off:]) // M and V start at +0, which is four zero bytes
	if err := o.writeState(key, wire); err != nil {
		return fmt.Errorf("opt: init %s: %w", g.Name, err)
	}
	for _, p := range g.Params {
		p.W.RoundFP16InPlace()
	}
	return nil
}

// BeginStep advances the optimizer step counter; call once per training
// iteration before the group updates.
func (o *OutOfCoreAdam) BeginStep() { o.step++ }

// UpdateGroup is the active-gradient-offloading handler body as one
// synchronous call on the caller's goroutine: it consumes the group's
// gradients (rounded to fp16, as they arrive over PCIe), reads P32+OS32
// from the store, applies Adam, writes the updated state back, and installs
// the new fp16 working weights. The engine's training path streams the same
// three stages through a StatePipeline instead; the values are identical.
func (o *OutOfCoreAdam) UpdateGroup(g nn.ParamGroup) error {
	if o.step < 1 {
		return fmt.Errorf("opt: UpdateGroup(%s) before BeginStep", g.Name)
	}
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	n := g.NumParams()
	key := o.stateKey(g.Name)
	wire := scratch(&o.scr.wire, wireBytes(n))
	if err := o.readState(key, wire, g.Name); err != nil {
		return err
	}
	grad := scratch(&o.scr.grad, n)
	if err := o.stageGrads(grad, g); err != nil {
		return err
	}
	p32, err := o.adamWire(wire, o.cfg, o.step, grad, g.Name, o.adamLabel(g.Name))
	if err != nil {
		return err
	}
	if err := o.writeState(key, wire); err != nil {
		return err
	}
	return o.installP16(g, p32)
}

// stageGrads fills dst with the group's gradients as the optimizer consumes
// them: rounded to fp16 (G16, the form they cross PCIe in), unscaled in
// fp32, and clipped to the per-group norm.
func (o *OutOfCoreAdam) stageGrads(dst []float32, g nn.ParamGroup) error {
	inv := 1.0
	if o.gradScale > 0 {
		inv = 1 / o.gradScale
	}
	idx := 0
	for _, p := range g.Params {
		if inv == 1 {
			// G16 boundary, unscaled: stage through the chunked fp16
			// round kernel (vectorized where available, bit-identical to
			// the scalar path per element).
			if err := tensor.RoundFP16Into(dst[idx:idx+len(p.G.Data)], p.G.Data); err != nil {
				return fmt.Errorf("opt: stage grad %s: %w", g.Name, err)
			}
			idx += len(p.G.Data)
			continue
		}
		for _, gv := range p.G.Data {
			// G16 boundary: gradients cross PCIe in fp16 (at loss-scaled
			// magnitude), then unscale in fp32. The unscale multiply is
			// float64 — a float32 vector multiply would change bits, so
			// the scaled path stays scalar.
			dst[idx] = float32(float64(tensor.RoundFP16(gv)) * inv)
			idx++
		}
	}
	// Gradients crossed the compute→host boundary in fp16 (G16).
	o.flows.Add(obs.EdgeComputeHost, obs.FlowGrads, int64(2*len(dst)))
	if o.clipNorm > 0 {
		var sq float64
		for _, gv := range dst {
			sq += float64(gv) * float64(gv)
		}
		if norm := math.Sqrt(sq); norm > o.clipNorm {
			simd.Scale(dst, float32(o.clipNorm/norm))
		}
	}
	return nil
}

// adamWire is the compute stage of a group update on state in wire form:
// apply Adam at (cfg, step >= 1) with grad to the P32|M|V object in place,
// one walk over its bytes (adamWireChunk), sharded like AdamStep. It returns
// the scratch slice holding the new masters, valid until the next scratch
// user, for the caller's fp16 install. Caller holds scrMu.
func (o *OutOfCoreAdam) adamWire(wire []byte, cfg AdamConfig, step int, grad []float32, group, label string) ([]float32, error) {
	n := len(grad)
	if len(wire) != wireBytes(n) {
		return nil, fmt.Errorf("opt: decode %s: state object is %d bytes, want %d", group, len(wire), wireBytes(n))
	}
	k := newAdamCoef(cfg, step)
	p32 := scratch(&o.scr.p32, n)
	sp := o.tracer.StartSpan(obs.LaneAdam, label)
	kernelStart := time.Now()
	if work := adamWork(n); pool.InlineWork(work) {
		adamWireChunk(k, wire, p32, grad, 0, n)
	} else {
		pool.ForWork(n, adamChunkGrain, work, func(lo, hi int) { adamWireChunk(k, wire, p32, grad, lo, hi) })
	}
	o.kernelNanos.Add(time.Since(kernelStart).Nanoseconds())
	sp.End()
	o.kernelParams.Add(int64(n))
	// The three fp32 state tensors still cross the codec in both directions
	// (P32, M, V from their wire form and back), inside that one walk.
	o.flows.Add(obs.EdgeCodecDecode, obs.FlowOptState, int64(wireBytes(n)))
	o.flows.Add(obs.EdgeCodecEncode, obs.FlowOptState, int64(wireBytes(n)))
	return p32, nil
}

// installP16 writes P16 = fp16(P32) into the group's working tensors
// through the chunked round kernel (bit-identical to the scalar loop per
// element).
func (o *OutOfCoreAdam) installP16(g nn.ParamGroup, p32 []float32) error {
	off := 0
	for _, p := range g.Params {
		if err := tensor.RoundFP16Into(p.W.Data, p32[off:off+len(p.W.Data)]); err != nil {
			return fmt.Errorf("opt: install %s: %w", g.Name, err)
		}
		off += len(p.W.Data)
	}
	// Fresh fp16 working weights cross back to the compute tier.
	o.flows.Add(obs.EdgeComputeHost, obs.FlowParams, int64(2*off))
	return nil
}

// scratch returns one of o.scr's slices at length n, growing its backing
// array when the group is larger than any seen before. Contents are
// unspecified; every caller fully overwrites its slice. Caller holds scrMu.
func scratch[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// readState reads a group's state object into dst at the optimizer-read
// priority.
func (o *OutOfCoreAdam) readState(key string, dst []byte, group string) error {
	var err error
	if o.classed != nil {
		err = o.classed.ReadIntoClass(key, dst, nvme.ClassOptRead)
	} else {
		err = o.store.ReadInto(key, dst)
	}
	if err != nil {
		return fmt.Errorf("opt: load %s: %w", group, err)
	}
	return nil
}

// writeState writes a group's state object at the writeback priority. Safe
// on reusable buffers because Store.Put must not retain its argument.
func (o *OutOfCoreAdam) writeState(key string, wire []byte) error {
	if o.classed != nil {
		return o.classed.PutClass(key, wire, nvme.ClassWriteback)
	}
	return o.store.Put(key, wire)
}

// MasterWeights returns the group's current fp32 masters (a copy of its
// object's P32 plane), for tests and inspection.
func (o *OutOfCoreAdam) MasterWeights(group string, n int) ([]float32, error) {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	wire, p32 := scratch(&o.scr.wire, wireBytes(n)), make([]float32, n)
	if err := o.readState(o.stateKey(group), wire, group); err != nil {
		return nil, err
	}
	return p32, tensor.FromFP32Bytes(wire[:4*n], p32)
}

// castagnoli is the CRC-32C table of a checkpoint record's checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteGroupTo writes the n-parameter group's checkpoint record to w — its
// state object as stored, then the object's CRC-32C, which it returns —
// through the wire scratch under scrMu, so a checkpoint holds one group's
// state at a time whatever the model's size.
func (o *OutOfCoreAdam) WriteGroupTo(w io.Writer, group string, n int) (crc uint32, err error) {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	wire := scratch(&o.scr.wire, wireBytes(n))
	if err := o.readState(o.stateKey(group), wire, group); err != nil {
		return 0, err
	}
	crc = crc32.Checksum(wire, castagnoli)
	binary.LittleEndian.PutUint32(o.scr.crc[:], crc)
	if _, err := w.Write(wire); err != nil {
		return 0, err
	}
	_, err = w.Write(o.scr.crc[:])
	return crc, err
}

// ImportWire restores g's state from the next WriteGroupTo record of r, read
// through the wire scratch: the object is stored and P16 = fp16(P32)
// installed only if it arrives whole and matches its CRC-32C. Unless stored,
// the store and the model are as they were.
func (o *OutOfCoreAdam) ImportWire(g nn.ParamGroup, r io.Reader) (stored bool, err error) {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	n := g.NumParams()
	wire, p32 := scratch(&o.scr.wire, wireBytes(n)), scratch(&o.scr.p32, n)
	if _, err := io.ReadFull(r, wire); err != nil {
		return false, err
	}
	if _, err := io.ReadFull(r, o.scr.crc[:]); err != nil {
		return false, err
	}
	if crc, want := crc32.Checksum(wire, castagnoli), binary.LittleEndian.Uint32(o.scr.crc[:]); crc != want {
		return false, fmt.Errorf("opt: import %s: state object fails its checksum (CRC-32C %08x, stored %08x)", g.Name, crc, want)
	}
	if err := tensor.FromFP32Bytes(wire[:4*n], p32); err != nil {
		return false, err
	}
	if err := o.writeState(o.stateKey(g.Name), wire); err != nil {
		return true, err
	}
	return true, o.installP16(g, p32)
}

// SetStep restores the optimizer step counter from a checkpoint.
func (o *OutOfCoreAdam) SetStep(step int) error {
	if step < 0 {
		return fmt.Errorf("opt: negative step %d", step)
	}
	o.step = step
	return nil
}
