// Package opt implements the optimizer side of the paper's model-state
// management: mixed-precision Adam with fp32 master weights and moments
// (P32 + OS32, Table II), and an out-of-core variant that streams each
// parameter group's state through a storage backend, cut into equal pieces —
// the CPU optimizer that active gradient offloading (§IV-C) drives.
//
// The out-of-core optimizer is exactly equivalent to the in-memory one for
// any piece size: each master round-trips through storage as its exact
// distance from the fp16 working copy the host holds (P16 + a 13-bit Δ, or
// the escape table's fp32 bits) and each moment as its low three bytes and a
// 4-bit code of its top byte (or the escape table's bits, or raw
// little-endian float32 where that is smaller), Adam is element-wise, and
// gradients are consumed in fp16 (G16) in both paths.
package opt

import (
	"encoding/binary"
	"errors"
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
	pool.Run(adamSite, adamWork(len(p32)), len(p32), adamChunkGrain, adamOp{newAdamCoef(cfg, t), p32, m, v, grad})
	return nil
}

// adamOp is one AdamStep's operand: its coefficients and slices.
type adamOp struct {
	k               simd.AdamCoef
	p32, m, v, grad []float32
}

// adamSite updates elements [lo,hi) of an AdamStep.
var adamSite = pool.NewSite(func(op adamOp, lo, hi int) {
	simd.Adam(op.k, op.p32[lo:hi], op.m[lo:hi], op.v[lo:hi], op.grad[lo:hi])
})

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

// Ticket is a transfer a Store has started. Wait blocks until it has
// finished, settles it and returns its error: call it exactly once. Done
// reports whether it has finished, and Notify has it send on c when it does
// (now, if it has), unless a send is already pending there, so one goroutine
// can wait on many tickets. *nvme.Ticket is one.
type Ticket interface {
	Wait() error
	Done() bool
	Notify(c chan<- struct{})
}

// Store is the storage the out-of-core optimizer streams model states
// through; MemStore and the engine's *nvme.Array satisfy it, safe for
// concurrent use. Start moves buf to (write) or from the object key: buf is
// the transfer's until its Wait returns, a read's is exactly the object's
// size, and a write is visible to a later Start once waited on. Every
// transfer is a ticket: a batch is tickets started before any is waited on.
type Store interface {
	Start(key string, buf []byte, write bool) Ticket
}

// settled is the ticket of a transfer that finished before Start returned;
// moved makes one, sharing the successful one, which allocates nothing.
type settled struct{ err error }

var movedOK = &settled{}

func moved(err error) Ticket {
	if err == nil {
		return movedOK
	}
	return &settled{err}
}

func (t *settled) Wait() error              { return t.err }
func (t *settled) Done() bool               { return true }
func (t *settled) Notify(c chan<- struct{}) { signal(c) }

// signal sends on c unless a send is already pending there.
func signal(c chan<- struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// MemStore is an in-memory Store for tests and the in-memory reference
// optimizer. Its methods hold memMu, every MemStore's lock: a bare map has
// no field to keep one in, so the zero value MemStore{} is ready to use.
type MemStore map[string][]byte

var memMu sync.Mutex

// Start moves the object at once — a write stores a copy of buf — and
// returns a settled ticket.
func (s MemStore) Start(key string, buf []byte, write bool) Ticket {
	memMu.Lock()
	defer memMu.Unlock()
	if write {
		s[key] = append([]byte(nil), buf...)
		return moved(nil)
	}
	b, ok := s[key]
	if !ok {
		return moved(fmt.Errorf("opt: memstore: missing %q", key))
	}
	if len(buf) != len(b) {
		return moved(fmt.Errorf("opt: memstore: read %q: dst %d bytes, object %d", key, len(buf), len(b)))
	}
	copy(buf, b)
	return moved(nil)
}

// OutOfCoreAdam keeps fp32 master weights and Adam moments in a Store and
// updates one parameter group at a time — the paper's CPU optimizer
// operating on model states homed on NVMe.
//
// A group's state is cut into pieces: contiguous parameter ranges of one
// size (the last one holds the rest), each its own store object
// "<prefix>/<group>/state/<k>". A piece is one striped read and one striped
// write, and the unit StatePipeline streams; SetWindow sizes it, and without
// it a group is one piece. A piece of n params is stored as three planes and
// the escape tables of the compact ones, each plane in one of two encodings,
// and the optimizer records the piece's Form and its tables' record counts
// eΔ, eM, eV (layout has the sizes):
//
//	master:  Δ (⌈13n/8⌉), or P32 (4n) in a FullP form
//	M, V:    lo (3n) | codes (⌈n/2⌉), or raw fp32 (4n) in a WideM / WideV form
//	tables:  Δ's: count u32 | eΔ × (index u32, P32 bits u32)
//	         M's, then V's: count u32 | base u32 | eM (eV) × (index u32, bits u32)
//
// Δ[i] = bits(P32[i]) − bits(P16[i]) in 13 bits (simd's Δ codec), and the
// install of P16 is the only writer of the working weights it is relative
// to; a narrow moment plane holds each little-endian fp32 value's low three
// bytes and its top byte as a 4-bit code from the plane's base (simd's
// narrow codec: signed for M, not for V). A value the compact encoding
// cannot hold is in its plane's table, which is as long as its records. A
// plane is stored raw only where that is smaller than its compact encoding
// and its table.
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
	// (or a piece's masters, outside the Adam walk), the escapes a FullP
	// piece lifts into the walk and those the walk or the encoders list per
	// plane, the walk's counts per chunk and its staging blocks, and the
	// moment planes a piece changes the encoding of. scrMu serializes its users —
	// UpdateGroup, the state pipeline's Adam stage and the checkpoint paths
	// never overlap in the engine, so the lock is uncontended and exists only
	// to keep concurrent misuse safe.
	scrMu sync.Mutex
	scr   struct {
		grad    []float32
		delta   []byte // a piece's Δs as int16 (lift, relayout)
		wire    []byte
		escIn   []byte
		out     [3][]byte // escapes the walk or an encoder lists: Δ's, M's, V's
		chunks  [][3]int
		stage   []byte
		planes  []byte   // a changed M plane, then a changed V plane (relayout)
		hist    [256]int // a moment plane's top bytes, sampled (seal)
		tickets []Ticket // a group's transfers in flight (move)
		crc     [4]byte  // a checkpoint record's CRC-32C (WriteGroupTo, ImportWire)
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
// form and with the escape tables' record counts it records. Whoever writes
// the piece sets them before the write — the pipeline's Adam stage before it
// starts the write-back — and its next reader reads it after waiting on that
// write. codes are the narrow codes the next update encodes M and V in (the
// Adam stage's, as the form).
type piece struct {
	key   string
	lo, n int
	form  Form
	esc   [3]int // records in the Δ, M and V tables (0 for a raw plane)
	codes [2]simd.Narrow
}

// stored is the size of the piece's object in the store.
func (pc *piece) stored() int { return layout(pc.n, pc.form, pc.esc).size }

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
		ps = append(ps, &piece{key: o.prefix + "/" + group + "/state/" + strconv.Itoa(len(ps)), lo: lo, n: min(size, n-lo), form: Full, codes: firstCodes})
	}
	o.cuts[group] = ps
	return ps
}

// firstCodes are the codes a fresh piece's first update encodes M and V in,
// before seal has seen its moments: the windows the benchmark's four
// workloads fit after their first step (EXPERIMENTS.md, "M and V travel as
// 4-bit codes").
var firstCodes = [2]simd.Narrow{{Signed: true, Base: 0x34}, {Base: 0x25}}

// Form is the encoding of a piece's three planes: the zero Form is the
// compact one — Δ, narrow M, narrow V, each with its escape table — and each
// bit stores one plane raw instead: plane p (the masters, M, V) is FullP<<p.
type Form uint8

const (
	FullP Form = 1 << iota // the masters as P32, not Δ
	WideM                  // M as raw fp32, not narrow
	WideV                  // V as raw fp32, not narrow

	// Full is P32 | M | V, three raw fp32 planes: a checkpoint record's
	// object, the largest form, and what the state window is budgeted in.
	Full = FullP | WideM | WideV
)

// pieceLayout is where an n-param piece's planes and tables lie in form f
// with tables of esc records: M at m, V at v, the planes' end at end, the
// tables present at tab (Δ's, M's, V's), and the object's size. Where the
// planes lie depends on the form alone.
type pieceLayout struct {
	m, v, end int
	tab       [3]int
	size      int
}

// tableHeader is the size of each table's header: its count, and a moment
// table's base.
var tableHeader = [3]int{4, 8, 8}

func layout(n int, f Form, esc [3]int) (l pieceLayout) {
	plane := func(p int) int {
		switch {
		case f&(FullP<<p) != 0:
			return 4 * n
		case p == 0:
			return simd.DeltaBytes(n)
		}
		return simd.NarrowBytes(n)
	}
	l.m = plane(0)
	l.v = l.m + plane(1)
	l.end = l.v + plane(2)
	l.size = l.end
	for p := range l.tab {
		if f&(FullP<<p) == 0 {
			l.tab[p], l.size = l.size, l.size+tableHeader[p]+simd.EscapeBytes*esc[p]
		}
	}
	return l
}

// StateBytes is the size of n params' state in form f with empty escape
// tables: 12 B/param in Full, about 8.6 in the compact form.
func StateBytes(n int, f Form) int { return layout(n, f, [3]int{}).size }

// compact reports whether plane p (the masters, M, V) of an n-param piece
// with e escapes is smaller in its compact encoding, table included, than
// raw: the rule a piece's form follows. The masters are from three params
// on, a moment plane from 18 (with no escapes).
func compact(n, p, e int) bool {
	var esc [3]int
	esc[p] = e
	return layout(n, Full&^(FullP<<p), esc).size < StateBytes(n, Full)
}

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
// working weights) and zero moments, and rounds the working weights to fp16
// (the P16 copies the GPU computes with) as it encodes each piece. The
// pieces are built each in its own region of the wire scratch and stored
// with every write in flight at once (move). Initialization so warms the
// wire scratch to the largest group's size — the checkpoint's gather needs
// that much — and the other scratch to the largest piece's, instead of
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
	wire := scratch(&o.scr.wire, StateBytes(n, Full))
	// pack warms the rest of the scratch but the lift's escapes and the
	// walk's per-chunk scratch, which a FullP piece or a sharded walk would
	// otherwise allocate in some step.
	scratch(&o.scr.escIn, simd.EscapeBytes*pieces[0].n)
	chunks := chunksOf(pieces[0].n)
	scratch(&o.scr.chunks, chunks)
	scratch(&o.scr.stage, chunks*stageBytes)
	for _, pc := range pieces {
		obj := region(wire, pc)
		err := overlap(g, pc.lo, pc.lo+pc.n, func(p nn.Param, a, b, at int) error {
			return tensor.ToFP32BytesInto(obj[4*at:4*(at+b-a)], p.W.Data[a:b])
		})
		if err != nil {
			return fmt.Errorf("opt: init %s: %w", g.Name, err)
		}
		clear(obj[4*pc.n:]) // M and V start at +0, which is four zero bytes
		o.pack(obj, g, pc)
	}
	if err := o.move(pieces, wire, true); err != nil {
		return fmt.Errorf("opt: init %s: %w", g.Name, err)
	}
	return nil
}

// region is the piece's region of the group-sized wire, where the pieces lie
// back to back in Full form (piece k at StateBytes(lo, Full)).
func region(wire []byte, pc *piece) []byte {
	return wire[StateBytes(pc.lo, Full):][:StateBytes(pc.n, Full)]
}

// move stores (write) or loads the group's pieces in their regions of the
// wire, each in the form it records: it starts every piece's transfer, in
// order, before it waits on any, then waits on each in the same order — on
// every one, whatever failed — and returns the failures joined. The tickets
// live in the scratch. Caller holds scrMu.
func (o *OutOfCoreAdam) move(pieces []*piece, wire []byte, write bool) error {
	tickets := scratch(&o.scr.tickets, len(pieces))
	for i, pc := range pieces {
		tickets[i] = o.store.Start(pc.key, region(wire, pc)[:pc.stored()], write)
	}
	var err error
	for _, t := range tickets {
		err = errors.Join(err, t.Wait())
	}
	return err
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
		obj := scratch(&o.scr.wire, StateBytes(pc.n, Full))[:pc.stored()]
		err := loaded(pc.key, o.store.Start(pc.key, obj, false).Wait())
		if err == nil {
			obj, err = o.applyTo(obj, g, pc, o.cfg, o.step, label)
		}
		if err == nil {
			err = o.store.Start(pc.key, obj, true).Wait()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// applyTo is the compute of one piece's update, in place on the object read
// into obj in its stored form (obj's capacity holds the Full form): check
// its escape tables, and lift a FullP piece's masters into Δ; stage the
// piece's gradients; walk Adam over it at (cfg, step), which installs P16;
// and seal it in the form it will be written in, which it records and
// returns the object of. Caller holds scrMu.
func (o *OutOfCoreAdam) applyTo(obj []byte, g nn.ParamGroup, pc *piece, cfg AdamConfig, step int, label string) ([]byte, error) {
	if len(obj) != pc.stored() {
		return nil, fmt.Errorf("opt: decode %s: state object is %d bytes, want %d", pc.key, len(obj), pc.stored())
	}
	read := len(obj)
	in, err := tables(obj, pc)
	if err != nil {
		return nil, err
	}
	obj = obj[:StateBytes(pc.n, Full)]
	if pc.form&FullP != 0 {
		in.esc[0] = o.lift(obj, g, pc, pc.form, scratch(&o.scr.escIn, simd.EscapeBytes*pc.n))
	}
	grad := scratch(&o.scr.grad, pc.n)
	if err := o.stageGrads(grad, g, pc.lo); err != nil {
		return nil, err
	}
	walked := pc.form &^ FullP
	out := o.adamDelta(obj, g, pc, walked, newAdamCoef(cfg, step), grad, in, label)
	obj = o.seal(obj, g, pc, walked, &out)
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

// recs are a piece's escape records by plane — Δ's, M's, V's, each sorted
// by index — and the narrow codes its moment planes are in.
type recs struct {
	esc   [3][]byte
	codes [2]simd.Narrow
}

// stageLen is the params of a walk's staging block: a block of the Δ plane
// and of each narrow moment plane is decoded into it, walked there and
// encoded back, so the codecs run in the walk's chunk loop on data in L1 and
// never as a pass over the piece. stageBytes is a chunk's staging: one block
// of each moment plane as fp32 and one of Δ as int16.
const (
	stageLen   = 512
	stageBytes = (2*4 + 2) * stageLen
)

// samples is about how many of a moment plane's top bytes seal samples to
// fit the next update's code to.
const samples = 1024

// chunksOf is the number of chunks a walk over n params is cut into.
func chunksOf(n int) int { return max(1, (n+adamChunkGrain-1)/adamChunkGrain) }

// adamDelta is the compute stage of a piece's update: one walk over its
// planes in obj, laid out in form f (masters as Δ), at coefficients k with
// grad, the records of the piece as read in in, which decodes each master,
// applies Adam, installs P16 into the group's working weights and encodes
// the result, M and V in the piece's codes — sharded like AdamStep, each
// chunk cut at the group's tensors. It returns the walk's escapes per plane,
// in order, in the scratch, and the codes it encoded in.
// Caller holds scrMu.
func (o *OutOfCoreAdam) adamDelta(obj []byte, g nn.ParamGroup, pc *piece, f Form, k simd.AdamCoef, grad []float32, in recs, label string) recs {
	n := pc.n
	var out [3][]byte
	for p := range out {
		out[p] = scratch(&o.scr.out[p], simd.EscapeBytes*n)
	}
	chunks := chunksOf(n)
	res, stage := scratch(&o.scr.chunks, chunks), scratch(&o.scr.stage, chunks*stageBytes)
	o.tracer.Do(obs.LaneAdam, label, func() {
		kernelStart := time.Now()
		pool.Run(deltaSite, adamWork(n), chunks, 1, deltaOp{obj, g, pc, f, k, grad, in, out, res, stage})
		o.kernelNanos.Add(time.Since(kernelStart).Nanoseconds())
	})
	o.kernelParams.Add(int64(n))
	r := recs{codes: pc.codes}
	var nesc [3]int
	for c, ch := range res {
		for p := range out {
			from := simd.EscapeBytes * c * adamChunkGrain
			nesc[p] += copy(out[p][simd.EscapeBytes*nesc[p]:], out[p][from:from+simd.EscapeBytes*ch[p]]) / simd.EscapeBytes
		}
	}
	for p := range out {
		r.esc[p] = out[p][:simd.EscapeBytes*nesc[p]]
	}
	return r
}

// deltaOp is one adamDelta's operand: walk's arguments, and the scratch its
// chunks list their escapes and counts in and stage their blocks in.
type deltaOp struct {
	obj   []byte
	g     nn.ParamGroup
	pc    *piece
	f     Form
	k     simd.AdamCoef
	grad  []float32
	in    recs
	out   [3][]byte
	res   [][3]int
	stage []byte
}

// deltaSite walks chunks [c0,c1) of an adamDelta as one range, in the staging
// block of its first chunk. It lists the range's escapes where its first
// element's would start and counts them as that chunk's, so calls never share
// a byte of out; adamDelta closes the lists up after.
var deltaSite = pool.NewSite(func(op deltaOp, c0, c1 int) {
	lo := c0 * adamChunkGrain
	var at [3][]byte
	for p := range at {
		at[p] = op.out[p][simd.EscapeBytes*lo:]
	}
	op.res[c0] = walk(op.obj, op.g, op.pc, op.f, op.k, op.grad, op.in, at, op.stage[c0*stageBytes:(c0+1)*stageBytes], lo, min(op.pc.n, c1*adamChunkGrain))
	clear(op.res[c0+1 : c1])
})

// walk runs the Δ walk over elements [from, to) of the piece in obj, laid out
// in form f, listing the escapes at out, and returns their counts. It goes a
// staging block at a time: the block's Δs are unpacked into stage and packed
// back after the walk; a narrow moment plane's block is decoded into stage
// (in its codes, in.codes) and encoded back (in the piece's); a raw one is
// walked where it lies. Each block's walk is one simd.AdamDelta per tensor
// of the group it covers, with that tensor's working weights as P16. from is
// a multiple of 8, so a block's Δs and codes are whole bytes.
func walk(obj []byte, g nn.ParamGroup, pc *piece, f Form, k simd.AdamCoef, grad []float32, in recs, out [3][]byte, stage []byte, from, to int) (nesc [3]int) {
	n, l := pc.n, layout(pc.n, f, pc.esc)
	planes := [2][]byte{obj[l.m:l.v], obj[l.v:l.end]}
	esc := in.esc
	for i := from; i < to; i += stageLen {
		j := min(to, i+stageLen)
		packed, d := obj[simd.DeltaBytes(i):l.m], stage[8*stageLen:8*stageLen+2*(j-i)]
		simd.UnpackDelta(d, packed)
		var blk [2][]byte
		for p, plane := range planes {
			if f&(WideM<<p) != 0 {
				blk[p] = plane[4*i : 4*j]
				continue
			}
			blk[p] = stage[4*stageLen*p : 4*stageLen*p+4*(j-i)]
			esc[1+p] = skipEscapes(esc[1+p], i)
			simd.NarrowDecode(blk[p], plane[3*i:3*j], plane[3*n+i/2:3*n+(j+1)/2], in.codes[p], i, esc[1+p])
		}
		overlap(g, pc.lo+i, pc.lo+j, func(p nn.Param, a, b, at int) error {
			s, e := at, at+b-a
			esc[0] = skipEscapes(esc[0], i+s)
			nesc[0] += simd.AdamDelta(k, i+s, d[2*s:2*e], blk[0][4*s:4*e], blk[1][4*s:4*e], grad[i+s:i+e], p.W.Data[a:b], esc[0], out[0][simd.EscapeBytes*nesc[0]:])
			return nil
		})
		simd.PackDelta(packed, d)
		for p, plane := range planes {
			if f&(WideM<<p) == 0 {
				nesc[1+p] += simd.NarrowEncode(plane[3*i:3*j], plane[3*n+i/2:3*n+(j+1)/2], blk[p], pc.codes[p], i, out[1+p][simd.EscapeBytes*nesc[1+p]:])
			}
		}
	}
	return nesc
}

// skipEscapes drops the records of a sorted escape list below index i.
func skipEscapes(esc []byte, i int) []byte {
	for len(esc) >= simd.EscapeBytes && int(binary.LittleEndian.Uint32(esc)) < i {
		esc = esc[simd.EscapeBytes:]
	}
	return esc
}

// planeNames name a piece's planes in errors: the masters, M, V.
var planeNames = [3]string{"Δ", "M", "V"}

// tables returns the escape records of the piece in obj, stored in its form,
// and the codes of its narrow planes, refusing a table whose count is not
// the one the piece records or whose indices do not rise strictly within
// the piece, and a base whose window leaves the byte: such a piece is never
// decoded. It reads nothing past the piece's size.
func tables(obj []byte, pc *piece) (r recs, err error) {
	l := layout(pc.n, pc.form, pc.esc)
	for p, at := range l.tab {
		if pc.form&(FullP<<p) != 0 {
			continue
		}
		if p > 0 {
			base := binary.LittleEndian.Uint32(obj[at+4:])
			r.codes[p-1] = simd.Narrow{Signed: p == 1, Base: uint8(base)}
			if base > 0xff || !r.codes[p-1].Valid() {
				return r, fmt.Errorf("opt: %s: %s base %d leaves the byte", pc.key, planeNames[p], base)
			}
		}
		if r.esc[p], err = records(obj[at:at+tableHeader[p]+simd.EscapeBytes*pc.esc[p]], p, pc); err != nil {
			return r, err
		}
	}
	return r, nil
}

// records returns the records of plane p's escape table, which is table. A
// count other than the piece's, or indices that do not rise strictly within
// the piece, are an error.
func records(table []byte, p int, pc *piece) ([]byte, error) {
	if c := int(binary.LittleEndian.Uint32(table)); c != pc.esc[p] {
		return nil, fmt.Errorf("opt: %s: the %s table counts %d escapes, the piece records %d", pc.key, planeNames[p], c, pc.esc[p])
	}
	esc := table[tableHeader[p]:]
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

// pack encodes the Full-form piece in obj, installing P16 = fp16(P32): it
// lifts the masters into Δ and seals the piece, at obj's start, in the form
// it is written in. Caller holds scrMu.
func (o *OutOfCoreAdam) pack(obj []byte, g nn.ParamGroup, pc *piece) {
	w := recs{esc: [3][]byte{o.lift(obj, g, pc, Full, scratch(&o.scr.out[0], simd.EscapeBytes*pc.n))}}
	o.seal(obj, g, pc, WideM|WideV, &w)
}

// lift turns the piece in obj, in FullP form f, into the same form with its
// masters as Δ, installing P16 = fp16(P32) into the group's working weights
// (which the Adam stage finds there already), and returns the escapes, listed
// in order from out's start. The masters go through the gradient scratch and
// their Δs through the delta scratch, and the moment planes move down to
// where the packed Δs end; the tables stay where they were. Caller holds
// scrMu.
func (o *OutOfCoreAdam) lift(obj []byte, g nn.ParamGroup, pc *piece, f Form, out []byte) []byte {
	n := pc.n
	p32, d := scratch(&o.scr.grad, n), scratch(&o.scr.delta, 2*n)
	_ = tensor.FromFP32Bytes(obj[:4*n], p32) // sizes are the piece's: no error
	nesc := 0
	overlap(g, pc.lo, pc.lo+n, func(p nn.Param, a, b, at int) error {
		nesc += simd.DeltaEncode(d[2*at:2*(at+b-a)], p32[at:at+b-a], p.W.Data[a:b], at, out[simd.EscapeBytes*nesc:])
		return nil
	})
	m := simd.DeltaBytes(n)
	simd.PackDelta(obj[:m], d)
	copy(obj[m:], obj[4*n:layout(n, f, pc.esc).end])
	return out[:simd.EscapeBytes*nesc]
}

// seal finishes the piece in obj, walked in form f (masters as Δ) with the
// walk's records w, in the smallest form its escapes allow: each plane
// compact where that, its table included, is smaller than raw (compact) —
// the masters unpacked to P32 otherwise; a narrow moment plane that is not
// smaller written again in the code that fits it and decoded to raw if that
// is not smaller either; and a raw one tried narrow, into the scratch, in the
// code that fits a sample of it. It writes the tables, records the form, the
// counts and the codes the next update encodes in, each the one whose window
// holds the most of a sample of the plane and its escapes, and returns the
// object. Caller holds scrMu.
func (o *OutOfCoreAdam) seal(obj []byte, g nn.ParamGroup, pc *piece, f Form, w *recs) []byte {
	n, to := pc.n, f
	if !compact(n, 0, len(w.esc[0])/simd.EscapeBytes) {
		to |= FullP
	}
	l := layout(n, f, pc.esc)
	planes := [2][]byte{obj[l.m:l.v], obj[l.v:l.end]}
	hist, every := &o.scr.hist, max(1, n/samples)
	for p, plane := range planes {
		clear(hist[:])
		switch raw := WideM << p; {
		case f&raw == 0:
			w.codes[p].Tally(hist, plane[3*n:], n, every)
			for e := w.esc[1+p]; len(e) > 0; e = e[simd.EscapeBytes:] {
				hist[e[simd.EscapeBytes-1]]++
			}
			pc.codes[p] = w.codes[p].Fit(hist)
			if compact(n, 1+p, len(w.esc[1+p])/simd.EscapeBytes) {
				continue
			}
			// The plane has left the window it was written in: it is written
			// again in the one that fits it, through the scratch, and stored raw
			// only if that is not smaller either.
			values, list := scratch(&o.scr.planes, 8*n)[4*n*p:4*n*(p+1)], scratch(&o.scr.out[1+p], simd.EscapeBytes*n)
			simd.NarrowDecode(values, plane[:3*n], plane[3*n:], w.codes[p], 0, w.esc[1+p])
			e := simd.NarrowEncode(plane[:3*n], plane[3*n:], values, pc.codes[p], 0, list)
			if w.esc[1+p], w.codes[p] = list[:simd.EscapeBytes*e], pc.codes[p]; !compact(n, 1+p, e) {
				to |= raw
			}
		case compact(n, 1+p, 0):
			for i := 0; i < n; i += every {
				hist[plane[4*i+3]] += every
			}
			c, tried, list := pc.codes[p].Fit(hist), scratch(&o.scr.planes, 8*n)[4*n*p:], scratch(&o.scr.out[1+p], simd.EscapeBytes*n)
			e := simd.NarrowEncode(tried[:3*n], tried[3*n:simd.NarrowBytes(n)], plane, c, 0, list)
			w.esc[1+p], w.codes[p], pc.codes[p] = list[:simd.EscapeBytes*e], c, c
			if compact(n, 1+p, e) {
				to &^= raw
			}
		}
	}
	if to != f {
		o.relayout(obj, g, pc, f, to, w)
	}
	for p := range pc.esc {
		pc.esc[p] = 0
		if to&(FullP<<p) == 0 {
			pc.esc[p] = len(w.esc[p]) / simd.EscapeBytes
		}
	}
	l = layout(n, to, pc.esc)
	for p, at := range l.tab {
		if to&(FullP<<p) != 0 {
			continue
		}
		binary.LittleEndian.PutUint32(obj[at:], uint32(pc.esc[p]))
		if p > 0 {
			binary.LittleEndian.PutUint32(obj[at+4:], uint32(w.codes[p-1].Base))
		}
		copy(obj[at+tableHeader[p]:], w.esc[p])
	}
	pc.form = to
	return obj[:l.size]
}

// relayout rewrites the piece in obj from form from, whose records are w,
// into form to: the masters unpacked from Δ to P32 (from the group's working
// weights) through the gradient and delta scratch, a narrow moment plane
// decoded into the planes scratch, where seal leaves a plane it narrows, and
// the planes that keep their encoding moved to where to has them. It reads
// every record before it moves a plane, and never turns P32 into Δ (lift
// does). Caller holds scrMu.
func (o *OutOfCoreAdam) relayout(obj []byte, g nn.ParamGroup, pc *piece, from, to Form, w *recs) {
	n := pc.n
	lf, lt := layout(n, from, pc.esc), layout(n, to, pc.esc)
	var p32 []float32
	if from&FullP == 0 && to&FullP != 0 {
		p32 = scratch(&o.scr.grad, n)
		d, esc := scratch(&o.scr.delta, 2*n), w.esc[0]
		simd.UnpackDelta(d, obj[:lf.m])
		overlap(g, pc.lo, pc.lo+n, func(p nn.Param, a, b, at int) error {
			esc = skipEscapes(esc, at)
			simd.DeltaDecode(p32[at:at+b-a], d[2*at:], p.W.Data[a:b], at, esc)
			return nil
		})
	}
	scr := scratch(&o.scr.planes, 8*n)
	src, dst := [2][]byte{obj[lf.m:lf.v], obj[lf.v:lf.end]}, [2][]byte{obj[lt.m:lt.v], obj[lt.v:lt.end]}
	changed := func(p int) bool { return (from^to)&(WideM<<p) != 0 }
	for p := range 2 {
		if changed(p) && to&(WideM<<p) != 0 {
			simd.NarrowDecode(scr[4*n*p:4*n*(p+1)], src[p][:3*n], src[p][3*n:], w.codes[p], 0, w.esc[1+p])
		}
	}
	for p := 1; p >= 0; p-- { // the planes move the same way, and V lies above M
		if !changed(p) {
			copy(dst[p], src[p])
		}
	}
	for p := range 2 {
		if changed(p) {
			copy(dst[p], scr[4*n*p:])
		}
	}
	if p32 != nil {
		_ = tensor.ToFP32BytesInto(obj[:4*n], p32) // sizes are the piece's: no error
	}
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

// loaded is the outcome of a read of the state piece key.
func loaded(key string, err error) error {
	if err != nil {
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

// gather reads the group's pieces into the wire scratch, every read in
// flight at once, each in its region, and turns every other one into Full
// form there. A piece whose escape tables are corrupt is refused. Caller
// holds scrMu.
func (o *OutOfCoreAdam) gather(g nn.ParamGroup) ([]byte, error) {
	n := g.NumParams()
	pieces, wire := o.cut(g.Name, n), scratch(&o.scr.wire, StateBytes(n, Full))
	if err := o.move(pieces, wire, false); err != nil {
		return nil, fmt.Errorf("opt: load %s: %w", g.Name, err)
	}
	for _, pc := range pieces {
		if pc.form == Full {
			continue
		}
		obj := region(wire, pc)
		in, err := tables(obj, pc)
		if err != nil {
			return nil, err
		}
		o.relayout(obj, g, pc, pc.form, Full, &in)
	}
	return wire, nil
}

// castagnoli is the CRC-32C table of a checkpoint record's checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// planes calls f for each plane of each piece of the n-param group as the
// pieces lie back to back in Full form in wire — piece k's P32, M or V plane
// — in the order of the group's whole P32 | M | V object: every piece's P32,
// then every M, then every V.
func (o *OutOfCoreAdam) planes(wire []byte, group string, n int, f func(plane []byte) error) error {
	for plane := 0; plane < 3; plane++ {
		for _, pc := range o.cut(group, n) {
			at := StateBytes(pc.lo, Full) + 4*pc.n*plane
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
// installing P16 = fp16(P32), and stored, every write in flight at once,
// only if the record arrives whole and matches its CRC-32C. Unless stored,
// the store and the model are as they were.
func (o *OutOfCoreAdam) ImportWire(g nn.ParamGroup, r io.Reader) (stored bool, err error) {
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	n := g.NumParams()
	pieces, wire := o.cut(g.Name, n), scratch(&o.scr.wire, StateBytes(n, Full))
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
	for _, pc := range pieces {
		o.pack(region(wire, pc), g, pc)
	}
	if err := o.move(pieces, wire, true); err != nil {
		return true, err
	}
	// Fresh fp16 working weights cross back to the compute tier.
	o.flows.Add(obs.EdgeComputeHost, obs.FlowParams, int64(2*n))
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
