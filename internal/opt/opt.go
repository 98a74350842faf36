// Package opt implements the optimizer side of the paper's model-state
// management: mixed-precision Adam with fp32 master weights and moments
// (P32 + OS32, Table II), and an out-of-core variant that streams each
// parameter group's state through a storage backend, cut into equal pieces —
// the CPU optimizer that active gradient offloading (§IV-C) drives.
//
// The out-of-core optimizer is exactly equivalent to the in-memory one for
// any piece size: state round-trips through storage as raw little-endian
// float32, Adam is element-wise, per-group clipping is computed over the
// whole group, and gradients are consumed in fp16 (G16) in both paths.
package opt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"
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
// A group's state is cut into pieces: contiguous parameter ranges of one
// size (the last one holds the rest), each its own store object
// "<prefix>/<group>/state/<k>" laid out P32 | M | V back to back as raw
// little-endian fp32 (12 bytes per parameter). A piece is one striped read
// and one striped write, and the unit StatePipeline streams; SetWindow sizes
// it, and without it a group is one piece.
type OutOfCoreAdam struct {
	cfg       AdamConfig
	store     Store
	classed   classedStore // store's optional traffic-classed path, nil if absent
	prefix    string
	step      int
	gradScale float64 // loss-scale divisor; 0 or 1 means unscaled
	clipNorm  float64 // per-group L2 clip; 0 disables
	piece     int     // params per state piece (SetWindow); 0 = a group is one piece

	tracer     *obs.Tracer        // optional: records per-piece Adam spans
	flows      *obs.FlowLedger    // optional: per-edge/purpose byte accounting
	adamLabels map[string]string  // group -> "group/opt-adam", precomputed
	cuts       map[string][]piece // group -> its pieces, precomputed

	// scr is the update scratch: the staged gradient, the new masters on
	// their way to the fp16 install, and the wire buffer of the synchronous
	// paths, sized to the largest group (the checkpoint's gather and scatter)
	// or piece seen and reused for the optimizer's lifetime. scrMu serializes
	// its users — UpdateGroup, the state pipeline's Adam stage and the
	// checkpoint paths never overlap in the engine, so the lock is uncontended
	// and exists only to keep concurrent misuse safe.
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
// exports and the calibration report prices the simulator's CPU-optimizer
// tasks with.
func (o *OutOfCoreAdam) KernelStats() (params int64, busy time.Duration) {
	return o.kernelParams.Load(), time.Duration(o.kernelNanos.Load())
}

// SetTracer installs a wall-clock span tracer: every group update records
// one span per state piece on obs.LaneAdam around the Adam kernel, each
// named after its group as the simulator's "<group>/opt-adam" task labels
// are, so measured and simulated timelines join by name. Call before
// training starts.
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

// piecesPerWindow is how many pieces a StatePipeline window's bytes are cut
// into (EXPERIMENTS.md, "The state streams in pieces", has the sweep).
const piecesPerWindow = 16

// SetWindow sizes the state pieces for a StatePipeline window of depth
// groups' state over groups: the window's bytes cut into piecesPerWindow
// equal pieces, never smaller than one Adam grain nor larger than the
// largest group. The pieces are the store layout, so call it before the
// first InitGroup.
func (o *OutOfCoreAdam) SetWindow(depth int, groups []nn.ParamGroup) {
	largest := 0
	for _, g := range groups {
		largest = max(largest, g.NumParams())
	}
	o.piece = min(largest, max(adamChunkGrain, max(depth, 1)*largest/piecesPerWindow))
}

// piece is params [lo, lo+n) of a group, stored as the object key.
type piece struct {
	key   string
	lo, n int
}

// cut returns the n-param group's pieces in order, building and caching
// them on first use (the hot path must not concatenate per transfer).
func (o *OutOfCoreAdam) cut(group string, n int) []piece {
	if ps, ok := o.cuts[group]; ok {
		return ps
	}
	if o.cuts == nil {
		o.cuts = make(map[string][]piece)
	}
	size := n
	if o.piece > 0 {
		size = min(n, o.piece)
	}
	var ps []piece
	for lo := 0; len(ps) == 0 || lo < n; lo += size {
		ps = append(ps, piece{o.prefix + "/" + group + "/state/" + strconv.Itoa(len(ps)), lo, min(size, n-lo)})
	}
	o.cuts[group] = ps
	return ps
}

// wireBytes is the size of n params' state object: three fp32 tensors.
func wireBytes(n int) int { return 12 * n }

// overlap calls f for each of g's tensors that params [lo,hi) of the
// group's flattened state cover: the tensor, its covered elements [a,b), and
// at, where they start in the range.
func overlap(g nn.ParamGroup, lo, hi int, f func(p nn.Param, a, b, at int) error) error {
	off := 0
	for _, p := range g.Params {
		n := len(p.W.Data)
		if a, b := max(lo, off), min(hi, off+n); a < b {
			if err := f(p, a-off, b-off, a-lo); err != nil {
				return err
			}
		}
		if off += n; off >= hi {
			break
		}
	}
	return nil
}

// InitGroup seeds the store with the group's fp32 masters (from the current
// working weights) and zero moments, piece by piece, and rounds the working
// weights to fp16 (the P16 copies the GPU computes with). The pieces are
// built in the wire scratch, which initialization warms to the largest
// group's size — the checkpoint's gather needs that much — instead of
// allocating later.
func (o *OutOfCoreAdam) InitGroup(g nn.ParamGroup) error {
	if o.adamLabels == nil {
		o.adamLabels = make(map[string]string)
	}
	o.adamLabels[g.Name] = g.Name + "/opt-adam"
	n := g.NumParams()
	pieces := o.cut(g.Name, n) // precompute the store keys off the hot path
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	wire := scratch(&o.scr.wire, wireBytes(n))
	for _, pc := range pieces {
		obj := wire[:wireBytes(pc.n)]
		err := overlap(g, pc.lo, pc.lo+pc.n, func(p nn.Param, a, b, at int) error {
			return tensor.ToFP32BytesInto(obj[4*at:4*(at+b-a)], p.W.Data[a:b])
		})
		clear(obj[4*pc.n:]) // M and V start at +0, which is four zero bytes
		if err == nil {
			err = o.writeState(pc.key, obj)
		}
		if err != nil {
			return fmt.Errorf("opt: init %s: %w", g.Name, err)
		}
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
// synchronous call on the caller's goroutine: piece by piece it reads
// P32+OS32 from the store, consumes the piece's gradients (rounded to fp16,
// as they arrive over PCIe), applies Adam, writes the updated state back,
// and installs the new fp16 working weights. The engine's training path
// streams the same pieces through a StatePipeline instead; the values are
// identical.
func (o *OutOfCoreAdam) UpdateGroup(g nn.ParamGroup) error {
	if o.step < 1 {
		return fmt.Errorf("opt: UpdateGroup(%s) before BeginStep", g.Name)
	}
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	clip, label := o.clipScale(g), o.adamLabel(g.Name)
	for _, pc := range o.cut(g.Name, g.NumParams()) {
		wire := scratch(&o.scr.wire, wireBytes(pc.n))
		err := o.readState(pc.key, wire)
		if err == nil {
			err = o.applyTo(wire, g, pc.lo, o.cfg, o.step, clip, label)
		}
		if err == nil {
			err = o.writeState(pc.key, wire)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// applyTo is the compute of one piece's update, in place on its state in
// wire: stage params [lo, ...) of g's gradients, walk Adam over the piece
// at (cfg, step), install their P16. Caller holds scrMu.
func (o *OutOfCoreAdam) applyTo(wire []byte, g nn.ParamGroup, lo int, cfg AdamConfig, step int, clip float32, label string) error {
	grad := scratch(&o.scr.grad, len(wire)/12)
	if err := o.stageGrads(grad, g, lo, clip); err != nil {
		return err
	}
	p32, err := o.adamWire(wire, cfg, step, grad, g.Name, label)
	if err != nil {
		return err
	}
	return o.installP16(g, lo, p32)
}

// unscale is the factor that divides the loss scale back out of a gradient.
func (o *OutOfCoreAdam) unscale() float64 {
	if o.gradScale > 0 {
		return 1 / o.gradScale
	}
	return 1
}

// clipScale is the factor that rescales g's staged gradient to the
// per-group clip norm: 1 when clipping is off or the norm is within it. The
// norm is summed over the whole group in staging order, from the values
// stageGrads stages, so every piece of the group is scaled alike and as the
// whole group staged at once would be.
func (o *OutOfCoreAdam) clipScale(g nn.ParamGroup) float32 {
	if o.clipNorm <= 0 {
		return 1
	}
	inv := o.unscale()
	var sq float64
	for _, p := range g.Params {
		for _, gv := range p.G.Data {
			v := float64(float32(float64(tensor.RoundFP16(gv)) * inv))
			sq += v * v
		}
	}
	if norm := math.Sqrt(sq); norm > o.clipNorm {
		return float32(o.clipNorm / norm)
	}
	return 1
}

// stageGrads fills dst with params [lo, lo+len(dst)) of the group's
// gradients as the optimizer consumes them: rounded to fp16 (G16, the form
// they cross PCIe in), unscaled in fp32, and scaled by the group's clip
// factor.
func (o *OutOfCoreAdam) stageGrads(dst []float32, g nn.ParamGroup, lo int, clip float32) error {
	inv := o.unscale()
	err := overlap(g, lo, lo+len(dst), func(p nn.Param, a, b, at int) error {
		out := dst[at : at+b-a]
		if inv == 1 {
			// G16 boundary, unscaled: stage through the chunked fp16 round
			// kernel (vectorized where available, bit-identical to the
			// scalar path per element).
			return tensor.RoundFP16Into(out, p.G.Data[a:b])
		}
		for i, gv := range p.G.Data[a:b] {
			// G16 boundary: gradients cross PCIe in fp16 (at loss-scaled
			// magnitude), then unscale in fp32. The unscale multiply is
			// float64 — a float32 vector multiply would change bits, so
			// the scaled path stays scalar.
			out[i] = float32(float64(tensor.RoundFP16(gv)) * inv)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("opt: stage grad %s: %w", g.Name, err)
	}
	// Gradients crossed the compute→host boundary in fp16 (G16).
	o.flows.Add(obs.EdgeComputeHost, obs.FlowGrads, int64(2*len(dst)))
	if clip != 1 {
		simd.Scale(dst, clip)
	}
	return nil
}

// adamWire is the compute stage of a piece's update on state in wire form:
// apply Adam at (cfg, step >= 1) with grad to the P32|M|V piece in place,
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

// installP16 writes P16 = fp16(P32) into params [lo, lo+len(p32)) of the
// group's working tensors through the chunked round kernel (bit-identical to
// the scalar loop per element).
func (o *OutOfCoreAdam) installP16(g nn.ParamGroup, lo int, p32 []float32) error {
	err := overlap(g, lo, lo+len(p32), func(p nn.Param, a, b, at int) error {
		return tensor.RoundFP16Into(p.W.Data[a:b], p32[at:at+b-a])
	})
	if err != nil {
		return fmt.Errorf("opt: install %s: %w", g.Name, err)
	}
	// Fresh fp16 working weights cross back to the compute tier.
	o.flows.Add(obs.EdgeComputeHost, obs.FlowParams, int64(2*len(p32)))
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

// readState reads one of a group's state pieces into dst at the
// optimizer-read priority.
func (o *OutOfCoreAdam) readState(key string, dst []byte) error {
	var err error
	if o.classed != nil {
		err = o.classed.ReadIntoClass(key, dst, nvme.ClassOptRead)
	} else {
		err = o.store.ReadInto(key, dst)
	}
	if err != nil {
		return fmt.Errorf("opt: load %s: %w", key, err)
	}
	return nil
}

// writeState writes a state piece at the writeback priority. Safe on
// reusable buffers because Store.Put must not retain its argument.
func (o *OutOfCoreAdam) writeState(key string, wire []byte) error {
	if o.classed != nil {
		return o.classed.PutClass(key, wire, nvme.ClassWriteback)
	}
	return o.store.Put(key, wire)
}

// MasterWeights returns the group's current fp32 masters (a copy of its
// pieces' P32 planes), for tests and inspection.
func (o *OutOfCoreAdam) MasterWeights(group string, n int) ([]float32, error) {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	p32 := make([]float32, n)
	for _, pc := range o.cut(group, n) {
		wire := scratch(&o.scr.wire, wireBytes(pc.n))
		if err := o.readState(pc.key, wire); err != nil {
			return nil, err
		}
		if err := tensor.FromFP32Bytes(wire[:4*pc.n], p32[pc.lo:pc.lo+pc.n]); err != nil {
			return nil, err
		}
	}
	return p32, nil
}

// castagnoli is the CRC-32C table of a checkpoint record's checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// planes calls f for each plane of each piece of the n-param group as the
// pieces lie back to back in wire — piece k's P32, M or V plane — in the
// order of the group's whole P32 | M | V object: every piece's P32, then
// every M, then every V.
func (o *OutOfCoreAdam) planes(wire []byte, group string, n int, f func(plane []byte) error) error {
	for plane := 0; plane < 3; plane++ {
		for _, pc := range o.cut(group, n) {
			at := wireBytes(pc.lo) + 4*pc.n*plane
			if err := f(wire[at : at+4*pc.n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteGroupTo writes the n-parameter group's checkpoint record to w — its
// state as one P32 | M | V object, gathered from the pieces as stored, then
// the object's CRC-32C, which it returns — through the wire scratch under
// scrMu, so a checkpoint holds one group's state at a time whatever the
// model's size and the record does not depend on the piece size.
func (o *OutOfCoreAdam) WriteGroupTo(w io.Writer, group string, n int) (crc uint32, err error) {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	wire := scratch(&o.scr.wire, wireBytes(n))
	for _, pc := range o.cut(group, n) {
		if err := o.readState(pc.key, wire[wireBytes(pc.lo):wireBytes(pc.lo+pc.n)]); err != nil {
			return 0, err
		}
	}
	err = o.planes(wire, group, n, func(plane []byte) error {
		crc = crc32.Update(crc, castagnoli, plane)
		_, err := w.Write(plane)
		return err
	})
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint32(o.scr.crc[:], crc)
	_, err = w.Write(o.scr.crc[:])
	return crc, err
}

// ImportWire restores g's state from the next WriteGroupTo record of r,
// scattered into its pieces in the wire scratch: the pieces are stored and
// P16 = fp16(P32) installed only if the record arrives whole and matches its
// CRC-32C. Unless stored, the store and the model are as they were.
func (o *OutOfCoreAdam) ImportWire(g nn.ParamGroup, r io.Reader) (stored bool, err error) {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	n := g.NumParams()
	wire := scratch(&o.scr.wire, wireBytes(n))
	var crc uint32
	err = o.planes(wire, g.Name, n, func(plane []byte) error {
		_, err := io.ReadFull(r, plane)
		crc = crc32.Update(crc, castagnoli, plane)
		return err
	})
	if err != nil {
		return false, err
	}
	if _, err := io.ReadFull(r, o.scr.crc[:]); err != nil {
		return false, err
	}
	if want := binary.LittleEndian.Uint32(o.scr.crc[:]); crc != want {
		return false, fmt.Errorf("opt: import %s: state object fails its checksum (CRC-32C %08x, stored %08x)", g.Name, crc, want)
	}
	for _, pc := range o.cut(g.Name, n) {
		obj, p32 := wire[wireBytes(pc.lo):wireBytes(pc.lo+pc.n)], scratch(&o.scr.p32, pc.n)
		if err := tensor.FromFP32Bytes(obj[:4*pc.n], p32); err != nil {
			return pc.lo > 0, err
		}
		if err := o.writeState(pc.key, obj); err != nil {
			return true, err
		}
		if err := o.installP16(g, pc.lo, p32); err != nil {
			return true, err
		}
	}
	return true, nil
}

// SetStep restores the optimizer step counter from a checkpoint.
func (o *OutOfCoreAdam) SetStep(step int) error {
	if step < 0 {
		return fmt.Errorf("opt: negative step %d", step)
	}
	o.step = step
	return nil
}
