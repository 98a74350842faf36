// Package opt implements the optimizer side of the paper's model-state
// management: mixed-precision Adam with fp32 master weights and moments
// (P32 + OS32, Table II), and an out-of-core variant that streams each
// parameter group's state through a storage backend, cut into equal pieces —
// the CPU optimizer that active gradient offloading (§IV-C) drives.
//
// The out-of-core optimizer is exactly equivalent to the in-memory one for
// any piece size: the moments round-trip through storage as raw
// little-endian float32 and each master as its exact distance from the fp16
// working copy the host holds (P16 + Δ, or the escape table's fp32 bits),
// Adam is element-wise, and gradients are consumed in fp16 (G16) in both
// paths.
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

// Store is the storage the out-of-core optimizer streams model states
// through; *nvme.Array and MemStore satisfy it. Put must not retain data
// after it returns and ReadInto fills dst, which must be exactly the stored
// object's size — the optimizer streams through buffers it owns and reuses.
type Store interface {
	Put(key string, data []byte) error
	ReadInto(key string, dst []byte) error
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
// "<prefix>/<group>/state/<k>". A piece is one striped read and one striped
// write, and the unit StatePipeline streams; SetWindow sizes it, and without
// it a group is one piece. A piece of n params is stored in one of two forms
// (StateBytes), the optimizer records which, and the install of P16 is the
// only writer of the working weights the Δ form is relative to:
//
//	Δ form:    Δ (2n) | M (4n) | V (4n) | escapes: count u32 | escCap(n) × (index u32, P32 bits u32)
//	full form: P32 (4n) | M (4n) | V (4n)
//
// Δ[i] = bits(P32[i]) − bits(P16[i]) as a little-endian int16 (simd's Δ
// codec) and M, V raw little-endian fp32; a master whose Δ does not fit is in
// the escape table, which holds 1/128 of the piece. A piece whose escapes
// overflow the table, or one too small for the Δ form to be smaller, is
// stored full.
type OutOfCoreAdam struct {
	cfg    AdamConfig
	store  Store
	prefix string
	step   int
	piece  int // params per state piece (SetWindow); 0 = a group is one piece

	tracer     *obs.Tracer         // optional: records per-piece Adam spans
	flows      *obs.FlowLedger     // optional: per-edge/purpose byte accounting
	adamLabels map[string]string   // group -> "group/opt-adam", precomputed
	cuts       map[string][]*piece // group -> its pieces, precomputed

	// scr is the update scratch, sized to the largest group (the wire buffer
	// of the synchronous paths and the checkpoint's gather and scatter) or
	// piece seen and reused for the optimizer's lifetime: the staged gradient
	// (or a piece's masters, outside the Adam walk), the escapes a full-form
	// piece lifts into the walk and those the walk or the encoder lists, and
	// the walk's escape count per chunk. scrMu serializes its users —
	// UpdateGroup, the state pipeline's Adam stage and the checkpoint paths
	// never overlap in the engine, so the lock is uncontended and exists only
	// to keep concurrent misuse safe.
	scrMu sync.Mutex
	scr   struct {
		grad          []float32
		wire          []byte
		escIn, escOut []byte
		escN          []int
		crc           [4]byte // a checkpoint record's CRC-32C (WriteGroupTo, ImportWire)
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
// parameter install (host→compute), and the codec traffic of the state
// stream: each piece's stored bytes decoded, in the form it was read, and
// encoded, in the form it is written. The host↔NVMe bytes themselves are
// accounted by the store (nvme.Array.SetObservers), not here — the two
// views reconcile because the optimizer puts and reads each piece in its
// stored form. Call before training starts; updates are allocation-free.
func (o *OutOfCoreAdam) SetFlowLedger(l *obs.FlowLedger) { o.flows = l }

// adamLabel returns the group's precomputed span label (built at InitGroup
// so the update hot path never concatenates).
func (o *OutOfCoreAdam) adamLabel(group string) string {
	if l, ok := o.adamLabels[group]; ok {
		return l
	}
	return group
}

// NewOutOfCoreAdam creates an optimizer over the given store. prefix
// namespaces its keys.
func NewOutOfCoreAdam(store Store, cfg AdamConfig, prefix string) *OutOfCoreAdam {
	return &OutOfCoreAdam{cfg: cfg, store: store, prefix: prefix}
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

// piece is params [lo, lo+n) of a group, stored as the object key in the
// form full records. Whoever writes the piece sets full before the write —
// the pipeline's Adam stage before it hands the piece to write-behind — and
// its next reader reads it after joining that write.
type piece struct {
	key   string
	lo, n int
	full  bool
}

// stored is the size of the piece's object in the store.
func (pc *piece) stored() int { return StateBytes(pc.n, pc.full) }

// cut returns the n-param group's pieces in order, building and caching
// them on first use (the hot path must not concatenate per transfer).
func (o *OutOfCoreAdam) cut(group string, n int) []*piece {
	if ps, ok := o.cuts[group]; ok {
		return ps
	}
	if o.cuts == nil {
		o.cuts = make(map[string][]*piece)
	}
	size := n
	if o.piece > 0 {
		size = min(n, o.piece)
	}
	var ps []*piece
	for lo := 0; len(ps) == 0 || lo < n; lo += size {
		pc := &piece{key: o.prefix + "/" + group + "/state/" + strconv.Itoa(len(ps)), lo: lo, n: min(size, n-lo)}
		pc.full = !deltaPays(pc.n)
		ps = append(ps, pc)
	}
	o.cuts[group] = ps
	return ps
}

// StateBytes is the size of n params' state in either form: full, P32 | M |
// V as three fp32 planes — which is also a checkpoint record's object and
// what the state window is budgeted in — or Δ | M | V | escapes, 10 B/param
// and the escape table.
func StateBytes(n int, full bool) int {
	if full {
		return 12 * n
	}
	return 10*n + 4 + simd.EscapeBytes*escCap(n)
}

// escCap is the escape table's capacity in an n-param piece: 1/128 of it.
func escCap(n int) int { return (n + 127) / 128 }

// deltaPays reports whether an n-param piece is smaller in the Δ form; one
// of fewer than seven params is always stored full.
func deltaPays(n int) bool { return StateBytes(n, false) < StateBytes(n, true) }

// StoredBytes reports the size of each of the group's pieces in the store,
// in piece order, in the form each is stored in now. Call it with no update
// in flight (after StatePipeline.Flush), for tests and inspection.
func (o *OutOfCoreAdam) StoredBytes(group string) []int {
	var sizes []int
	for _, pc := range o.cuts[group] {
		sizes = append(sizes, pc.stored())
	}
	return sizes
}

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
// weights to fp16 (the P16 copies the GPU computes with) as it encodes each
// piece. The pieces are built in the wire scratch, which initialization
// warms to the largest group's size — the checkpoint's gather needs that
// much — and the other scratch to the largest piece's, instead of allocating
// later.
func (o *OutOfCoreAdam) InitGroup(g nn.ParamGroup) error {
	if o.adamLabels == nil {
		o.adamLabels = make(map[string]string)
	}
	o.adamLabels[g.Name] = g.Name + "/opt-adam"
	n := g.NumParams()
	pieces := o.cut(g.Name, n) // precompute the store keys off the hot path
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	wire := scratch(&o.scr.wire, StateBytes(n, true))
	// pack warms the rest of the scratch but the lift's and the walk's chunk
	// counts, which a full-form piece or a sharded walk would otherwise
	// allocate in some step.
	scratch(&o.scr.escIn, simd.EscapeBytes*pieces[0].n)
	scratch(&o.scr.escN, (pieces[0].n+adamChunkGrain-1)/adamChunkGrain)
	for _, pc := range pieces {
		obj := wire[:StateBytes(pc.n, true)]
		err := overlap(g, pc.lo, pc.lo+pc.n, func(p nn.Param, a, b, at int) error {
			return tensor.ToFP32BytesInto(obj[4*at:4*(at+b-a)], p.W.Data[a:b])
		})
		clear(obj[4*pc.n:]) // M and V start at +0, which is four zero bytes
		if err == nil {
			err = o.store.Put(pc.key, o.pack(obj, g, pc))
		}
		if err != nil {
			return fmt.Errorf("opt: init %s: %w", g.Name, err)
		}
	}
	return nil
}

// BeginStep advances the optimizer step counter; call once per training
// iteration before the group updates.
func (o *OutOfCoreAdam) BeginStep() { o.step++ }

// UpdateGroup is the active-gradient-offloading handler body as one
// synchronous call on the caller's goroutine: piece by piece it reads the
// piece's P32+OS32 from the store, consumes its gradients (rounded to fp16,
// as they arrive over PCIe), applies Adam, installs the new fp16 working
// weights and writes the updated state back. The engine never calls it: its
// every update streams the same pieces through a StatePipeline, with the
// same values. It stays as the synchronous reference — this package's tests
// check the pipeline against it, the engine's tests train a plain model with
// it — and the benchmark's probe times it.
func (o *OutOfCoreAdam) UpdateGroup(g nn.ParamGroup) error {
	if o.step < 1 {
		return fmt.Errorf("opt: UpdateGroup(%s) before BeginStep", g.Name)
	}
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	label := o.adamLabel(g.Name)
	for _, pc := range o.cut(g.Name, g.NumParams()) {
		obj := scratch(&o.scr.wire, StateBytes(pc.n, true))[:pc.stored()]
		err := o.readState(pc.key, obj)
		if err == nil {
			obj, err = o.applyTo(obj, g, pc, o.cfg, o.step, label)
		}
		if err == nil {
			err = o.store.Put(pc.key, obj)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// applyTo is the compute of one piece's update, in place on the object read
// into obj in its stored form (obj's capacity holds the full form): lift a
// full-form piece into the Δ layout, or check the escape table of a Δ-form
// one; stage the piece's gradients; walk Adam over it at (cfg, step), which
// installs P16; and seal it in the form it will be written in, which it
// records and returns the object of. Caller holds scrMu.
func (o *OutOfCoreAdam) applyTo(obj []byte, g nn.ParamGroup, pc *piece, cfg AdamConfig, step int, label string) ([]byte, error) {
	if len(obj) != pc.stored() {
		return nil, fmt.Errorf("opt: decode %s: state object is %d bytes, want %d", pc.key, len(obj), pc.stored())
	}
	read := len(obj)
	obj = obj[:StateBytes(pc.n, true)]
	var esc []byte
	if pc.full {
		esc = o.lift(obj, g, pc, scratch(&o.scr.escIn, simd.EscapeBytes*pc.n))
	} else {
		var err error
		if esc, err = escapes(obj, pc); err != nil {
			return nil, err
		}
	}
	grad := scratch(&o.scr.grad, pc.n)
	if err := o.stageGrads(grad, g, pc.lo); err != nil {
		return nil, err
	}
	obj = o.seal(obj, g, pc, o.adamDelta(obj, g, pc, newAdamCoef(cfg, step), grad, esc, label))
	// The state crossed the codec in both directions inside the walk, in the
	// form it was read and the form it is written; fresh fp16 working
	// weights crossed back to the compute tier.
	o.flows.Add(obs.EdgeCodecDecode, obs.FlowOptState, int64(read))
	o.flows.Add(obs.EdgeCodecEncode, obs.FlowOptState, int64(len(obj)))
	o.flows.Add(obs.EdgeComputeHost, obs.FlowParams, int64(2*pc.n))
	return obj, nil
}

// stageGrads fills dst with params [lo, lo+len(dst)) of the group's
// gradients as the optimizer consumes them: rounded to fp16 (G16, the form
// they cross PCIe in) by the chunked fp16 round kernel.
func (o *OutOfCoreAdam) stageGrads(dst []float32, g nn.ParamGroup, lo int) error {
	err := overlap(g, lo, lo+len(dst), func(p nn.Param, a, b, at int) error {
		return tensor.RoundFP16Into(dst[at:at+b-a], p.G.Data[a:b])
	})
	if err != nil {
		return fmt.Errorf("opt: stage grad %s: %w", g.Name, err)
	}
	// Gradients crossed the compute→host boundary in fp16 (G16).
	o.flows.Add(obs.EdgeComputeHost, obs.FlowGrads, int64(2*len(dst)))
	return nil
}

// adamDelta is the compute stage of a piece's update: one walk
// (simd.AdamDelta) over the Δ|M|V planes in obj at coefficients k with grad,
// masters escaped in esc, which decodes each master, applies Adam, installs
// P16 into the group's working weights and encodes the result — sharded like
// AdamStep, each chunk cut at the group's tensors. It returns the walk's
// escapes, in order, in the scratch. Caller holds scrMu.
func (o *OutOfCoreAdam) adamDelta(obj []byte, g nn.ParamGroup, pc *piece, k simd.AdamCoef, grad []float32, esc []byte, label string) []byte {
	n := pc.n
	out := scratch(&o.scr.escOut, simd.EscapeBytes*n)
	var nesc int
	o.tracer.Do(obs.LaneAdam, label, func() {
		kernelStart := time.Now()
		if work := adamWork(n); pool.InlineWork(work) {
			nesc = walk(obj, g, pc, k, grad, esc, out, 0, n)
		} else {
			// Each chunk lists its escapes where its own elements' would start, so
			// the chunks never share a byte of out; the lists close up after.
			chunks := (n + adamChunkGrain - 1) / adamChunkGrain
			counts := scratch(&o.scr.escN, chunks)
			pool.Run(chunks, func(c int) {
				lo := c * adamChunkGrain
				counts[c] = walk(obj, g, pc, k, grad, esc, out[simd.EscapeBytes*lo:], lo, min(n, lo+adamChunkGrain))
			})
			for c, e := range counts {
				from := simd.EscapeBytes * c * adamChunkGrain
				nesc += copy(out[simd.EscapeBytes*nesc:], out[from:from+simd.EscapeBytes*e]) / simd.EscapeBytes
			}
		}
		o.kernelNanos.Add(time.Since(kernelStart).Nanoseconds())
	})
	o.kernelParams.Add(int64(n))
	return out[:simd.EscapeBytes*nesc]
}

// walk runs the Δ walk over elements [from, to) of the piece in obj, one call
// per tensor of the group they cover, with that tensor's working weights as
// P16, listing the escapes at out; it returns their count.
func walk(obj []byte, g nn.ParamGroup, pc *piece, k simd.AdamCoef, grad []float32, esc, out []byte, from, to int) int {
	n, nesc := pc.n, 0
	d, m, v := obj[:2*n], obj[2*n:6*n], obj[6*n:10*n]
	overlap(g, pc.lo+from, pc.lo+to, func(p nn.Param, a, b, at int) error {
		i, j := from+at, from+at+b-a
		esc = skipEscapes(esc, i)
		nesc += simd.AdamDelta(k, i, d[2*i:2*j], m[4*i:4*j], v[4*i:4*j], grad[i:j], p.W.Data[a:b], esc, out[simd.EscapeBytes*nesc:])
		return nil
	})
	return nesc
}

// skipEscapes drops the records of a sorted escape list below index i.
func skipEscapes(esc []byte, i int) []byte {
	for len(esc) >= simd.EscapeBytes && int(binary.LittleEndian.Uint32(esc)) < i {
		esc = esc[simd.EscapeBytes:]
	}
	return esc
}

// escapes returns the escape records of the Δ-form piece in obj, refusing a
// table whose count is over its capacity or whose indices do not rise
// strictly within the piece: such a piece is never decoded.
func escapes(obj []byte, pc *piece) ([]byte, error) {
	table := obj[10*pc.n:]
	c := int(binary.LittleEndian.Uint32(table))
	if c > escCap(pc.n) {
		return nil, fmt.Errorf("opt: %s: %d escapes in a table of %d", pc.key, c, escCap(pc.n))
	}
	esc := table[4 : 4+simd.EscapeBytes*c]
	prev := -1
	for e := esc; len(e) > 0; e = e[simd.EscapeBytes:] {
		i := int(binary.LittleEndian.Uint32(e))
		if i <= prev || i >= pc.n {
			return nil, fmt.Errorf("opt: %s: escape index %d out of order or range (%d params)", pc.key, i, pc.n)
		}
		prev = i
	}
	return esc, nil
}

// pack stores the full-form piece in obj, installing P16 = fp16(P32): it
// encodes the piece (lift) and seals it in the form it is written in, and
// returns that object. Caller holds scrMu.
func (o *OutOfCoreAdam) pack(obj []byte, g nn.ParamGroup, pc *piece) []byte {
	return o.seal(obj, g, pc, o.lift(obj, g, pc, scratch(&o.scr.escOut, simd.EscapeBytes*pc.n)))
}

// lift turns the piece in obj from P32|M|V into Δ|M|V, installing P16 =
// fp16(P32) into the group's working weights (which the Adam stage finds
// there already), and returns the escapes, listed in order from out's start.
// The masters go through the gradient scratch. Caller holds scrMu.
func (o *OutOfCoreAdam) lift(obj []byte, g nn.ParamGroup, pc *piece, out []byte) []byte {
	n := pc.n
	p32 := scratch(&o.scr.grad, n)
	_ = tensor.FromFP32Bytes(obj[:4*n], p32) // sizes are the piece's: no error
	nesc := 0
	overlap(g, pc.lo, pc.lo+n, func(p nn.Param, a, b, at int) error {
		nesc += simd.DeltaEncode(obj[2*at:], p32[at:at+b-a], p.W.Data[a:b], at, out[simd.EscapeBytes*nesc:])
		return nil
	})
	copy(obj[2*n:6*n], obj[4*n:8*n])
	copy(obj[6*n:10*n], obj[8*n:12*n])
	return out[:simd.EscapeBytes*nesc]
}

// seal finishes the Δ|M|V piece in obj whose escapes are esc: into the Δ
// form with its escape table when they fit and that form is the smaller,
// otherwise unpacked into the full form. It records the form and returns the
// object. Caller holds scrMu.
func (o *OutOfCoreAdam) seal(obj []byte, g nn.ParamGroup, pc *piece, esc []byte) []byte {
	n := pc.n
	pc.full = len(esc)/simd.EscapeBytes > escCap(n) || !deltaPays(n)
	if pc.full {
		o.unpack(obj, g, pc, esc)
		return obj[:StateBytes(n, true)]
	}
	table := obj[10*n : StateBytes(n, false)]
	binary.LittleEndian.PutUint32(table, uint32(len(esc)/simd.EscapeBytes))
	clear(table[4+copy(table[4:], esc):])
	return obj[:StateBytes(n, false)]
}

// unpack turns the piece in obj from Δ|M|V, escapes in esc, into P32|M|V with
// P32 = P16 + Δ from the group's working weights. esc may lie in obj's table:
// it is read before the planes move over it. The masters go through the
// gradient scratch. Caller holds scrMu.
func (o *OutOfCoreAdam) unpack(obj []byte, g nn.ParamGroup, pc *piece, esc []byte) {
	n := pc.n
	p32 := scratch(&o.scr.grad, n)
	overlap(g, pc.lo, pc.lo+n, func(p nn.Param, a, b, at int) error {
		esc = skipEscapes(esc, at)
		simd.DeltaDecode(p32[at:at+b-a], obj[2*at:], p.W.Data[a:b], at, esc)
		return nil
	})
	copy(obj[8*n:12*n], obj[6*n:10*n])
	copy(obj[4*n:8*n], obj[2*n:6*n])
	_ = tensor.ToFP32BytesInto(obj[:4*n], p32) // sizes are the piece's: no error
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

// readState reads one of a group's state pieces into dst.
func (o *OutOfCoreAdam) readState(key string, dst []byte) error {
	if err := o.store.ReadInto(key, dst); err != nil {
		return fmt.Errorf("opt: load %s: %w", key, err)
	}
	return nil
}

// State returns a copy of the group's decoded state — its P32, M and V, as a
// checkpoint records them — for tests and inspection.
func (o *OutOfCoreAdam) State(g nn.ParamGroup) (p32, m, v []float32, err error) {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	n := g.NumParams()
	wire, err := o.gather(g)
	if err != nil {
		return nil, nil, nil, err
	}
	state, at := make([]float32, 3*n), 0
	err = o.planes(wire, g.Name, n, func(plane []byte) error {
		at += len(plane) / 4
		return tensor.FromFP32Bytes(plane, state[at-len(plane)/4:at])
	})
	return state[:n], state[n : 2*n], state[2*n:], err
}

// gather reads the group's pieces into the wire scratch, each where the
// group's pieces would lie back to back in full form (piece k at
// StateBytes(lo, true)), and unpacks every Δ-form one there. A piece whose
// escape table is corrupt is refused. Caller holds scrMu.
func (o *OutOfCoreAdam) gather(g nn.ParamGroup) ([]byte, error) {
	n := g.NumParams()
	wire := scratch(&o.scr.wire, StateBytes(n, true))
	for _, pc := range o.cut(g.Name, n) {
		obj := wire[StateBytes(pc.lo, true):StateBytes(pc.lo+pc.n, true)]
		if err := o.readState(pc.key, obj[:pc.stored()]); err != nil {
			return nil, err
		}
		if pc.full {
			continue
		}
		esc, err := escapes(obj, pc)
		if err != nil {
			return nil, err
		}
		o.unpack(obj, g, pc, esc)
	}
	return wire, nil
}

// castagnoli is the CRC-32C table of a checkpoint record's checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// planes calls f for each plane of each piece of the n-param group as the
// pieces lie back to back in full form in wire — piece k's P32, M or V plane
// — in the order of the group's whole P32 | M | V object: every piece's P32,
// then every M, then every V.
func (o *OutOfCoreAdam) planes(wire []byte, group string, n int, f func(plane []byte) error) error {
	for plane := 0; plane < 3; plane++ {
		for _, pc := range o.cut(group, n) {
			at := StateBytes(pc.lo, true) + 4*pc.n*plane
			if err := f(wire[at : at+4*pc.n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteGroupTo writes the group's checkpoint record to w — its state as one
// P32 | M | V object, gathered from the pieces and decoded, then the object's
// CRC-32C, which it returns — through the wire scratch under scrMu, so a
// checkpoint holds one group's state at a time whatever the model's size and
// the record depends on neither the piece size nor the form a piece is
// stored in.
func (o *OutOfCoreAdam) WriteGroupTo(w io.Writer, g nn.ParamGroup) (crc uint32, err error) {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	wire, err := o.gather(g)
	if err != nil {
		return 0, err
	}
	err = o.planes(wire, g.Name, g.NumParams(), func(plane []byte) error {
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
// scattered into its pieces in the wire scratch: the pieces are encoded,
// installing P16 = fp16(P32), and stored only if the record arrives whole
// and matches its CRC-32C. Unless stored, the store and the model are as
// they were.
func (o *OutOfCoreAdam) ImportWire(g nn.ParamGroup, r io.Reader) (stored bool, err error) {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	n := g.NumParams()
	wire := scratch(&o.scr.wire, StateBytes(n, true))
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
		obj := wire[StateBytes(pc.lo, true):StateBytes(pc.lo+pc.n, true)]
		if err := o.store.Put(pc.key, o.pack(obj, g, pc)); err != nil {
			return true, err
		}
		// Fresh fp16 working weights cross back to the compute tier.
		o.flows.Add(obs.EdgeComputeHost, obs.FlowParams, int64(2*pc.n))
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
