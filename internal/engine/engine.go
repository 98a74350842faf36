// Package engine is the runnable Ratel training engine at laptop scale: a
// real transformer fine-tuned with mixed precision, with model states homed
// on the striped NVMe substrate, activations swapped or recomputed per the
// holistic plan, and the out-of-core CPU optimizer consuming gradients as
// they arrive during backward propagation (active gradient offloading,
// §IV-C).
//
// The engine exists to validate the paper's correctness claims for real:
// offloaded training is bit-identical to in-memory training, recomputation
// is bit-identical to caching, and active gradient offloading — naive or
// optimized — introduces no parameter staleness relative to a serialized
// optimizer stage.
package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/opt"
	"ratel/internal/tensor"
	"ratel/internal/tensor/pool"
	"ratel/internal/units"
)

// classifyFlowKey maps an NVMe object key to its byte-flow purpose by
// namespace: activation blobs live under act/ and optimizer state under
// states/ (the prefix the engine hands NewOutOfCoreAdam).
func classifyFlowKey(key string) obs.FlowPurpose {
	switch {
	case strings.HasPrefix(key, "act/"):
		return obs.FlowActivations
	case strings.HasPrefix(key, "states/"):
		return obs.FlowOptState
	}
	return obs.FlowOther
}

// Tier says where a block's activation cache lives until backward.
type Tier int

// Activation placements, mirroring the planner's three-level hierarchy.
const (
	// Recompute discards the cache; backward rebuilds it from the block
	// input (which is always kept — it is the recomputation root).
	Recompute Tier = iota
	// SwapHost keeps the fp16 cache pinned in main memory.
	SwapHost
	// SwapSSD stages the fp16 cache through main memory onto the NVMe
	// array (the α·A_G2M portion of Eq. 3).
	SwapSSD
)

// valid reports whether t is one of the three placements.
func (t Tier) valid() bool { return t >= Recompute && t <= SwapSSD }

// String names the tier.
func (t Tier) String() string {
	if t.valid() {
		return [...]string{"recompute", "swap-host", "swap-ssd"}[t]
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// Config assembles an engine.
type Config struct {
	Model nn.Config
	Adam  opt.AdamConfig
	// GradMode selects how the optimizer consumes gradients: Serialized
	// (after backward, ZeRO-style), Naive (inline per-tensor handlers), or
	// Optimized (pipelined handlers overlapping backward).
	GradMode agoffload.Mode
	// Swap places each block's activation cache; absent blocks recompute.
	Swap map[int]Tier
	// DelayedUpdate enables ZeRO-Offload's one-step delayed parameter
	// update (footnote 4 of the paper): the optimizer applies iteration
	// k-1's gradients while iteration k computes with stale parameters.
	// Ratel rejects this because it changes the training trajectory — the
	// engine implements it so the staleness is demonstrable. The late update
	// runs through the state pipeline like any other, LRSchedule included.
	// SaveCheckpoint refuses while gradients are pending; FlushDelayed
	// applies them.
	DelayedUpdate bool
	// Devices is the NVMe array width; Dir selects file backing ("" =
	// memory).
	Devices int
	Dir     string
	// SSD, when non-nil, overrides the NVMe array's throttling/integrity
	// knobs (bandwidth per device, per-op latency, checksums); Devices and
	// Dir above still apply, and its FCFS is replaced by oracleFCFS.
	SSD *nvme.Config
	// LRSchedule, when non-nil, sets the learning rate at the start of
	// every optimizer step (e.g. opt.WarmupCosine).
	LRSchedule opt.Schedule
	// PipelineDepth bounds the activation I/O window in each direction:
	// forward may have up to this many write-behind offloads in flight while
	// compute proceeds, and backward read-ahead launches the fetch for block
	// i-depth when block i is consumed. 0 means DefaultPipelineDepth;
	// negative is rejected. Depth changes only timing, never values — the
	// step barrier makes every depth bit-identical to recomputation.
	PipelineDepth int
	// Tracer, when non-nil, records wall-clock spans for every training
	// stage (forward/backward kernels, activation offload and prefetch,
	// NVMe device I/O, CPU-optimizer chunks). Tracing never changes
	// computed values and the hot path allocates nothing per span.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives per-step instrument updates
	// (tokens/s, stage wall times, tier bytes, NVMe and pool counters).
	Metrics *obs.Registry

	// Test oracles, settable only from this package's tests: the baselines
	// the bit-identity matrices and the BENCH_sched / BENCH_overlap rows
	// compare the one production path against. oracleFCFS opens the array
	// with a single arrival-ordered lane per device; oracleSyncIO runs the
	// activation window with no overlap — every transfer is joined as soon as
	// it is submitted and every fetch is launched at its consume. Every
	// optimizer update goes through the state pipeline either way.
	oracleFCFS   bool
	oracleSyncIO bool
}

// Stats counts the engine's data movement.
type Stats struct {
	Steps int
	// ActBytesOffload is activation bytes written to the SSD tier.
	ActBytesOffload units.Bytes
	// ActBytesHost is activation bytes pinned in the host tier.
	ActBytesHost units.Bytes
	// ActBytesFetched is activation bytes restored from either tier, blobs
	// decoded from the ring slot that still held them included.
	ActBytesFetched units.Bytes
	// ActBytesResident is SSD-tier bytes decoded from their ring slot
	// instead of read back.
	ActBytesResident units.Bytes
	RecomputedBlocks int
	SSD              nvme.Stats
}

// Engine drives training.
type Engine struct {
	cfg       Config
	model     *nn.Model
	array     *nvme.Array
	optimizer *opt.OutOfCoreAdam
	geom      geometry

	// twins is DelayedUpdate's second gradient buffer per parameter, in
	// e.groups order, allocated once: each step swaps it with the
	// parameter's G.Data, so the twins hold the step's gradients until the
	// next step applies them. pending says they are yet to be applied.
	twins   [][]float32
	pending bool

	// groups caches ParamGroups at construction — group boundaries and the
	// P/G tensors they reference are fixed for the model's lifetime.
	groups []nn.ParamGroup
	// arena holds the host tier's blobs and the blob codec (see arena.go);
	// blobLen is the fixed fp16 size of one block's activation blob.
	arena   blobArena
	blobLen int
	// stepArena and blockArena are the step's working set (tensor.Arena): every
	// tensor a micro-batch's forward and backward produce comes from one of
	// them — stepArena what lives until the batch ends (block inputs and
	// outputs, the gradients between blocks, embedding, head and loss),
	// blockArena what lives for one block's pass (its cache — computed, or
	// decoded into revived — and its temporaries; releaseBlock). runBatch
	// resets both and installs them on the model for its own duration, so
	// between steps (EvalLoss, ProfileAndPlan, Generate) the model allocates
	// on the heap. inputs[i] is block i's input in the batch in progress.
	// released is a test hook, called after every release of arena memory with
	// the tensor on its way to the next block (nil at the top of a batch).
	stepArena, blockArena tensor.Arena
	inputs                []*tensor.Tensor
	revived               nn.BlockCache
	released              func(carried *tensor.Tensor)
	// depth is the resolved activation I/O window; win owns the ring and moves
	// SwapSSD blobs between it and the array in both directions (pipeline.go).
	depth int
	win   *actWindow
	// states is the optimizer state pipeline (opt.StatePipeline), the
	// engine's only optimizer path: every group update streams through its
	// read-ahead → Adam → write-behind stages, and GradMode only decides when
	// the step goroutine submits to it and waits on it (DelayedUpdate: one
	// step late). serialized collects the groups a Serialized step updates
	// after backward; accumScale is the gradient-averaging factor of the step
	// in progress; one backs TrainStep's single micro-batch. optErr latches
	// the first failed optimizer update, write-back or restore: the stored
	// state matches no step, so steps and checkpoints are refused until a
	// checkpoint is restored whole.
	states     *opt.StatePipeline
	serialized []nn.ParamGroup
	accumScale float32
	one        [1]Batch
	optErr     error
	ckptScr    []byte // checkpoint headers on their way to or from a stream

	// submittedN counts the updates this step handed to the state pipeline
	// (one read-ahead of its state pieces each), folded into the step record
	// at noteStep.
	submittedN int

	// Telemetry (see telemetry.go). tracer may be nil; ins holds one registry
	// handle per row of the metrics table, detached no-ops when Config.Metrics
	// is nil. flows and flight are always on: both are fixed-size atomic
	// structures whose update paths allocate nothing, so byte accounting and
	// postmortem history never need opting into. step is the last step's
	// record and ssd/prevSSD the array counters at the last two noteSteps;
	// like the other prev* snapshots they belong to the step goroutine.
	tracer           *obs.Tracer
	labels           []blockLabels
	ins              []any
	flows            *obs.FlowLedger
	flight           *obs.FlightRecorder
	step             obs.StepRecord
	prevFlow         obs.FlowSnapshot
	prevKernelParams int64
	prevKernelBusy   time.Duration
	ssd, prevSSD     nvme.Stats
	prevSched        nvme.SchedStats

	// Per-block data-movement counters, updated inside the hot
	// forward/backward loops. Atomics rather than e.mu: the loops run once
	// per block per step, and the offload counter in particular is bumped
	// while writer goroutines are concurrently active — a mutex here would
	// serialize the hot path against every Stats() reader. Folded into
	// Stats() snapshots.
	actOffload  atomic.Int64
	actHost     atomic.Int64
	actFetched  atomic.Int64
	recomputedN atomic.Int64

	mu    sync.Mutex
	stats Stats
}

// New builds the engine: model, NVMe array, and the out-of-core optimizer
// seeded with the initial fp32 masters.
func New(cfg Config) (*Engine, error) {
	if cfg.Devices < 1 {
		cfg.Devices = 1
	}
	if cfg.PipelineDepth < 0 {
		return nil, fmt.Errorf("engine: negative PipelineDepth %d", cfg.PipelineDepth)
	}
	m, err := nn.NewModel(cfg.Model)
	if err != nil {
		return nil, err
	}
	if err := validSwap(cfg.Swap, len(m.Blocks)); err != nil {
		return nil, err
	}
	var ncfg nvme.Config
	if cfg.SSD != nil {
		ncfg = *cfg.SSD
	}
	ncfg.Devices = cfg.Devices
	ncfg.Dir = cfg.Dir
	ncfg.FCFS = cfg.oracleFCFS
	a, err := nvme.Open(ncfg)
	if err != nil {
		return nil, err
	}
	if cfg.Adam == (opt.AdamConfig{}) {
		cfg.Adam = opt.DefaultAdam()
	}
	e := &Engine{
		cfg:       cfg,
		model:     m,
		array:     a,
		optimizer: opt.NewOutOfCoreAdam(a, cfg.Adam, "states"),
		geom:      geometryOf(cfg.Model),
		groups:    m.ParamGroups(),
		inputs:    make([]*tensor.Tensor, len(m.Blocks)),
		tracer:    cfg.Tracer,
		labels:    makeBlockLabels(len(m.Blocks)),
		ins:       make([]any, len(metrics)),
		flows:     obs.NewFlowLedger(),
		flight:    obs.NewFlightRecorder(0),
	}
	e.blobLen = e.geom.blobBytes()
	e.depth = cfg.PipelineDepth
	if e.depth == 0 {
		e.depth = DefaultPipelineDepth
	}
	e.arena.host = make([]hostBlob, len(m.Blocks))
	a.SetTracer(cfg.Tracer)
	e.optimizer.SetTracer(cfg.Tracer)
	// The one registration site: every row of the metrics table, once.
	for i, row := range metrics {
		e.ins[i] = row.kind(cfg.Metrics, row.name)
	}
	// Byte-flow and latency observers: the array credits host↔NVMe bytes
	// per key namespace and feeds the transfer-latency histograms; the
	// optimizer credits its staging and codec traffic. The worker pool's
	// job histogram is process-wide, so it is only installed when this
	// engine actually exports metrics.
	a.SetObservers(e.ins[rowNVMeReadNS].(*obs.Histogram), e.ins[rowNVMeWriteNS].(*obs.Histogram), e.flows, classifyFlowKey)
	e.optimizer.SetFlowLedger(e.flows)
	if cfg.Metrics != nil {
		pool.Default().SetJobHistogram(e.ins[rowPoolJobNS].(*obs.Histogram))
	}
	e.optimizer.SetWindow(e.depth, e.groups)
	for _, g := range e.groups {
		if err := e.optimizer.InitGroup(g); err != nil {
			return nil, errors.Join(err, a.Close())
		}
	}
	// Background goroutines (activation window workers, optimizer state
	// pipeline) start last so no construction-error path has to stop them:
	// every earlier failure closes just the array.
	e.serialized = make([]nn.ParamGroup, 0, len(e.groups))
	if cfg.DelayedUpdate {
		for _, g := range e.groups {
			for _, p := range g.Params {
				e.twins = append(e.twins, make([]float32, p.G.Numel()))
			}
		}
	}
	// The state window reuses the activation window depth.
	e.states = opt.NewStatePipeline(e.optimizer, e.depth, e.groups)
	e.win = newActWindow(a, cfg.Tracer, e.labels, e.blobLen, &e.arena.blobReuses, e.depth)
	e.win.syncIO = cfg.oracleSyncIO
	return e, nil
}

// Close joins the optimizer's trailing write-back, stops the activation
// window's workers and the state pipeline, and releases the NVMe array. The
// last step's write-back reports here: the result is the latched optimizer
// failure (optErr) joined with the array's. A step-goroutine call.
func (e *Engine) Close() error {
	e.joinWriteBack()
	e.win.close()
	e.states.Close()
	return errors.Join(e.optErr, e.array.Close())
}

// Model exposes the underlying model (its weights are the P16 working
// copies).
func (e *Engine) Model() *nn.Model { return e.model }

// Array exposes the NVMe substrate for inspection and fault injection. Raw
// access can see write-back still in flight; Stats().SSD is the joined view.
func (e *Engine) Array() *nvme.Array { return e.array }

// Stats returns a snapshot of the engine's counters. The per-block
// data-movement counts live in atomics (the hot loops never take e.mu) and
// are folded into the snapshot here. It joins the trailing write-back first,
// so Stats then Flows reconcile exactly: a step-goroutine call, unlike the
// never-blocking LastStepMetrics, FlightRecords and metrics registry.
func (e *Engine) Stats() Stats {
	e.joinWriteBack()
	e.mu.Lock()
	s := e.stats
	e.mu.Unlock()
	s.ActBytesOffload = units.Bytes(e.actOffload.Load())
	s.ActBytesHost = units.Bytes(e.actHost.Load())
	s.ActBytesFetched = units.Bytes(e.actFetched.Load())
	s.ActBytesResident = units.Bytes(e.win.resident.Load())
	s.RecomputedBlocks = int(e.recomputedN.Load())
	s.SSD = e.array.Stats()
	return s
}

// TrainStep runs one synchronous training iteration and returns the loss.
// Regardless of GradMode, the parameters after TrainStep are identical —
// active gradient offloading changes when updates run, not what they
// compute (no staleness, §IV-C).
func (e *Engine) TrainStep(tokens, targets [][]int) (float64, error) {
	e.one[0] = Batch{Tokens: tokens, Targets: targets}
	loss, err := e.trainStep(e.one[:])
	e.one[0] = Batch{}
	return loss, err
}

// countTokens sums the sequence lengths of one batch.
func countTokens(tokens [][]int) int {
	n := 0
	for _, seq := range tokens {
		n += len(seq)
	}
	return n
}

// Batch is one micro-batch for TrainStepAccum.
type Batch struct {
	Tokens, Targets [][]int
}

// TrainStepAccum runs one optimizer step over several micro-batches
// (gradient accumulation): gradients accumulate across micro-batches and
// are averaged, and each group's mean gradient is consumed by the active
// gradient offloading pipeline as it completes during the *last*
// micro-batch's backward — the overlap of §IV-C is preserved. The returned
// loss is the micro-batch mean. Incompatible with DelayedUpdate.
func (e *Engine) TrainStepAccum(micro []Batch) (float64, error) {
	if len(micro) == 0 {
		return 0, fmt.Errorf("engine: no micro-batches")
	}
	if e.cfg.DelayedUpdate {
		return 0, fmt.Errorf("engine: gradient accumulation with delayed update is unsupported")
	}
	return e.trainStep(micro)
}

// trainStep is one optimizer step over micro (TrainStep is the one-batch
// case): every micro-batch runs forward and backward, and the last one's
// backward hands each completed group to the optimizer per GradMode. The
// step span covers runStep.
func (e *Engine) trainStep(micro []Batch) (loss float64, err error) {
	if e.optErr != nil {
		return 0, e.optErr
	}
	e.model.ZeroGrads()
	e.win.startStep()
	e.submittedN = 0
	if !e.cfg.DelayedUpdate {
		e.beginStep()
	}
	e.tracer.Do(obs.LaneStep, labelStep, func() { loss, err = e.runStep(micro) })
	return loss, err
}

// runStep runs trainStep's micro-batches, drains the optimizer and notes
// the step.
func (e *Engine) runStep(micro []Batch) (float64, error) {
	stepStart := time.Now()
	e.accumScale = float32(1) / float32(len(micro))
	var totalLoss float64
	var fwdTotal, bwdTotal time.Duration
	tokenCount := 0
	for i, b := range micro {
		// A delayed update hands the optimizer nothing during backward.
		loss, fwdDur, bwdDur, err := e.runBatch(b.Tokens, b.Targets, i == len(micro)-1 && !e.cfg.DelayedUpdate)
		if err != nil {
			// Don't apply a partial serialized update for a failed step; the
			// updates already streaming are joined either way.
			e.serialized = e.serialized[:0]
			if werr := e.waitStates(); werr != nil {
				return 0, fmt.Errorf("%w (and optimizer drain failed: %v)", err, werr)
			}
			return 0, err
		}
		totalLoss += loss
		fwdTotal += fwdDur
		bwdTotal += bwdDur
		tokenCount += countTokens(b.Tokens)
	}

	drainStart := time.Now()
	if e.cfg.DelayedUpdate {
		e.delayGrads(true)
	}
	if err := e.finishStep(); err != nil {
		return 0, err
	}
	drain := time.Since(drainStart)
	e.noteStep(fwdTotal, bwdTotal, drain, time.Since(stepStart), tokenCount)
	return totalLoss / float64(len(micro)), nil
}

// gradsReady hands one group's completed gradients (averaged over the
// step's micro-batches) to the optimizer. GradMode decides only when the
// update is submitted to the state pipeline and when it is waited for:
// Optimized submits now and waits at the end of the step, Naive submits and
// waits here, Serialized holds the group back until finishStep.
func (e *Engine) gradsReady(g nn.ParamGroup) error {
	if e.accumScale != 1 {
		for _, p := range g.Params {
			p.G.Scale(e.accumScale)
		}
	}
	switch e.cfg.GradMode {
	case agoffload.Optimized:
		return e.submitUpdate(g)
	case agoffload.Naive:
		if err := e.submitUpdate(g); err != nil {
			return err
		}
		return e.waitStates()
	default:
		e.serialized = append(e.serialized, g)
		return nil
	}
}

// submitUpdate starts g's optimizer update on the state pipeline.
func (e *Engine) submitUpdate(g nn.ParamGroup) error {
	e.submittedN++
	return e.states.Submit(g)
}

// waitStates is the optimizer half of the step barrier: every submitted
// update is joined on "Adam applied, P16 installed"; its write-back trails.
func (e *Engine) waitStates() error {
	return e.optFailed(e.states.Wait())
}

// joinWriteBack joins the write-back trailing the last step; a failure
// latches. Every method that reads stored state or array counters starts
// with it, so no caller has a flush precondition.
func (e *Engine) joinWriteBack() {
	e.optFailed(e.states.Flush())
}

// optFailed latches the first optimizer failure (see optErr) and returns err.
func (e *Engine) optFailed(err error) error {
	if err != nil && e.optErr == nil {
		e.optErr = fmt.Errorf("engine: optimizer state is inconsistent after a failed update or restore (restore a checkpoint to continue): %w", err)
	}
	return err
}

// finishStep drains the optimizer after backward: it submits the groups
// Serialized mode held back, then waits for every update of the step.
func (e *Engine) finishStep() error {
	held := e.serialized
	e.serialized = e.serialized[:0]
	for _, g := range held {
		if err := e.submitUpdate(g); err != nil {
			return errors.Join(err, e.waitStates())
		}
	}
	return e.waitStates()
}

// beginStep advances the optimizer and applies the learning-rate schedule.
func (e *Engine) beginStep() {
	e.optimizer.BeginStep()
	if e.cfg.LRSchedule != nil {
		e.optimizer.SetLR(e.cfg.LRSchedule(e.optimizer.Step()))
	}
}

// runBatch executes one forward/backward pass, accumulating gradients.
// When apply is set (the step's last micro-batch) each completed group is
// handed to the optimizer in gradient-arrival order. The returned durations
// are the forward and backward stage wall times.
func (e *Engine) runBatch(tokens, targets [][]int, apply bool) (loss float64, fwdDur, bwdDur time.Duration, err error) {
	m := e.model
	m.NextStep()       // fresh dropout masks; recomputation below replays them
	groups := e.groups // embedding, block0..N-1, head
	fail := func(err error) (float64, time.Duration, time.Duration, error) {
		return 0, fwdDur, bwdDur, e.abortBatch(err)
	}
	tr := e.tracer
	// The batch's working set: whatever the last batch left in the arenas —
	// finished or failed, a kept cache included — is dead here (releaseBlock(nil)
	// tells the test hook), and only here is either buffer (re)allocated.
	e.stepArena.Reset()
	e.blockArena.Reset()
	e.releaseBlock(nil)
	m.SetArena(&e.stepArena, &e.blockArena)
	defer m.SetArena(nil, nil)

	// ---------- Forward ----------
	fwdStart := time.Now()
	var x *tensor.Tensor
	tr.Do(obs.LaneCompute, labelEmbedFwd, func() { x, err = m.Embed(tokens) })
	if err != nil {
		return fail(err)
	}
	inputs := e.inputs
	var lastCache *nn.BlockCache
	h := x
	for i, b := range m.Blocks {
		inputs[i] = h
		var y *tensor.Tensor
		var c *nn.BlockCache
		tr.Do(obs.LaneCompute, e.labels[i].fwd, func() { y, c, err = b.Forward(h) })
		if err != nil {
			return fail(err)
		}
		switch e.cfg.Swap[i] {
		case SwapSSD:
			// Write-behind offload: encode into block i's ring slot; block i+1
			// computes while one of the window's workers puts the blob.
			stash := func(blob []byte) error { return e.stashCache(blob, c, e.labels[i].offload) }
			if err := e.win.offload(i, stash); err != nil {
				return fail(err)
			}
			e.actOffload.Add(int64(e.blobLen))
		case SwapHost:
			// Pin the cache in main memory until backward consumes it: the
			// block's own blob holds the bytes.
			if err := e.stashCache(e.arena.hostBuf(i, e.blobLen), c, e.labels[i].pin); err != nil {
				return fail(err)
			}
			e.arena.host[i].pinned = true
			e.actHost.Add(int64(e.blobLen))
		}
		// The live cache is dropped either way: swapped blocks restore it
		// from their tier, the rest recompute from the saved block input. But
		// not the last block's, which backward wants a head forward from now
		// with no other cache live: recomputing that one lowers no peak, so its
		// scope simply stays open until its backward has run.
		if i == len(m.Blocks)-1 && e.cfg.Swap[i] == Recompute {
			lastCache = c
		} else {
			e.releaseBlock(y)
		}
		h = y
	}
	var lnOut, logits, dlogits *tensor.Tensor
	tr.Do(obs.LaneCompute, labelHeadFwd, func() { lnOut, logits, err = m.HeadForward(h) })
	if err != nil {
		return fail(err)
	}
	tr.Do(obs.LaneCompute, labelLoss, func() { loss, dlogits, err = m.CrossEntropy(logits, targets) })
	if err != nil {
		return fail(err)
	}
	// Forward's half of the step barrier: every write-behind offload joins
	// here (head forward and the loss overlapped the tail writes), so any
	// write error surfaces before backward and backward starts with all ring
	// slots free for read-ahead.
	if err := e.win.barrier(); err != nil {
		return fail(fmt.Errorf("engine: offload activations: %w", err))
	}
	fwdDur = time.Since(fwdStart)
	tr.Instant(obs.LaneStep, labelFwdEnd)

	// ---------- Backward with active gradient offloading ----------
	bwdStart := time.Now()
	var dh *tensor.Tensor
	tr.Do(obs.LaneCompute, labelHeadBwd, func() { dh, err = m.HeadBackward(h, lnOut, dlogits) })
	if err != nil {
		return fail(err)
	}
	dh.RoundFP16InPlace()
	// The head group's gradients are complete: its handler fires first
	// (gradients arrive with decreasing block index, §IV-C).
	if apply {
		if err := e.gradsReady(groups[len(groups)-1]); err != nil {
			return fail(err)
		}
	}

	// Depth-k read-ahead (the Ratel_hook prefetching of Fig. 4): the SSD fetch
	// for block i-depth launches when block i is consumed. It changes only
	// timing, never values, and is staggered instead of issued all at once:
	// concurrent reads fair-queue on each device's read lane, so a full-depth
	// burst delays the one fetch backward is about to block on by the whole
	// batch. A block's consume launches only a fetch nothing has launched yet
	// (the first-needed one), and the window refills after each consume —
	// in-flight reads still reach depth during block compute, but the head of
	// the queue is never contended.
	ahead := e.depth
	if e.cfg.oracleSyncIO {
		ahead = 0
	}
	nextFetch := len(m.Blocks) - 1
	refill := func(lo int) error {
		for ; nextFetch >= lo && nextFetch >= 0; nextFetch-- {
			if e.cfg.Swap[nextFetch] == SwapSSD {
				if err := e.win.prefetch(nextFetch); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for i := len(m.Blocks) - 1; i >= 0; i-- {
		var c *nn.BlockCache
		switch e.cfg.Swap[i] {
		case SwapSSD:
			if err := refill(i); err != nil {
				return fail(err)
			}
			revive := func(blob []byte) (err error) {
				c, err = e.reviveCache(blob, inputs[i])
				return err
			}
			if err := e.win.consume(i, revive); err != nil {
				return fail(err)
			}
		case SwapHost:
			h := &e.arena.host[i]
			if !h.pinned {
				return fail(fmt.Errorf("engine: block %d host-tier cache missing", i))
			}
			if c, err = e.reviveCache(h.blob, inputs[i]); err != nil {
				return fail(err)
			}
			h.pinned = false
		default:
			if i == len(m.Blocks)-1 {
				c = lastCache // forward's own, kept across the head
				break
			}
			tr.Do(obs.LaneCompute, e.labels[i].recompute, func() { c, err = m.Blocks[i].Recompute(inputs[i]) })
			if err != nil {
				return fail(err)
			}
			e.recomputedN.Add(1)
		}
		// Refill the read-ahead window now that block i's slot is consumed;
		// these fetches overlap block i's backward compute.
		if err := refill(i - ahead); err != nil {
			return fail(err)
		}
		var dx *tensor.Tensor
		tr.Do(obs.LaneCompute, e.labels[i].bwd, func() { dx, err = m.Blocks[i].Backward(c, dh) })
		if err != nil {
			return fail(err)
		}
		dx.RoundFP16InPlace()
		dh = dx
		e.releaseBlock(dh)
		if apply {
			if err := e.gradsReady(groups[i+1]); err != nil {
				return fail(err)
			}
		}
	}
	tr.Do(obs.LaneCompute, labelEmbedBwd, func() { err = m.EmbedBackward(tokens, dh) })
	if err != nil {
		return fail(err)
	}
	if apply {
		if err := e.gradsReady(groups[0]); err != nil {
			return fail(err)
		}
	}
	bwdDur = time.Since(bwdStart)
	tr.Instant(obs.LaneStep, labelBwdEnd)
	return loss, fwdDur, bwdDur, nil
}

// abortBatch is the step barrier's failure half: it unpins the host tier's
// blobs and joins every transfer in flight, so no pinned cache, transfer or
// transfer error outlives a failed batch, and returns err joined with what
// the barrier found.
func (e *Engine) abortBatch(err error) error {
	e.arena.releaseHost()
	if derr := e.win.barrier(); derr != nil {
		err = errors.Join(err, derr)
	}
	return err
}

// releaseBlock ends a block's scope: its cache and its temporaries are dead,
// and what lives on — the block inputs and carried, the tensor on its way to
// the next block — is the step arena's.
func (e *Engine) releaseBlock(carried *tensor.Tensor) {
	e.blockArena.Release()
	if e.released != nil {
		e.released(carried)
	}
}

// stashCache is the swap tiers' shared forward half: it fp16-encodes c into
// blob — a ring slot bound for NVMe (the array credits that write) or a
// host-tier blob — and credits the encode and the staging through host memory.
func (e *Engine) stashCache(blob []byte, c *nn.BlockCache, label string) error {
	var err error
	e.tracer.Do(obs.LaneOffload, label, func() { err = e.arena.encode(blob, c) })
	if err != nil {
		return err
	}
	e.flows.Add(obs.EdgeCodecEncode, obs.FlowActivations, int64(len(blob)))
	e.flows.Add(obs.EdgeComputeHost, obs.FlowActivations, int64(len(blob)))
	return nil
}

// reviveCache is the shared backward half: it decodes blob, from either
// tier, into tensors of the block's scope with input installed, and credits
// it. The cache lives where a recomputed or a kept one does, until the block's
// backward has run; revived is the one BlockCache they are all revived in.
func (e *Engine) reviveCache(blob []byte, input *tensor.Tensor) (*nn.BlockCache, error) {
	c := &e.revived
	e.geom.shapeCache(c, &e.blockArena)
	if err := e.arena.decode(c, blob, input); err != nil {
		return nil, err
	}
	e.actFetched.Add(int64(len(blob)))
	e.flows.Add(obs.EdgeCodecDecode, obs.FlowActivations, int64(len(blob)))
	e.flows.Add(obs.EdgeComputeHost, obs.FlowActivations, int64(len(blob)))
	return c, nil
}

// delayGrads is the one-step delayed update's half of a step: it swaps every
// gradient with its twin, so the twins hold the step's gradients and the
// parameters the ones the step before left there, and if those are pending
// it begins an optimizer step and holds every group for finishStep to
// update, as a Serialized step does. hold says whether the twins' gradients
// are pending now. A step that runs it computed with parameters one update
// behind — the staleness footnote 4 warns about.
func (e *Engine) delayGrads(hold bool) {
	k := 0
	for _, g := range e.groups {
		for _, p := range g.Params {
			p.G.Data, e.twins[k] = e.twins[k], p.G.Data
			k++
		}
	}
	if e.pending {
		e.beginStep()
		e.serialized = append(e.serialized[:0], e.groups...)
	}
	e.pending = hold
}

// FlushDelayed applies the pending gradients of DelayedUpdate mode (e.g. at
// the end of training). A no-op otherwise.
func (e *Engine) FlushDelayed() error {
	if !e.pending {
		return nil
	}
	e.delayGrads(false)
	return e.finishStep()
}

func actKey(block int) string { return fmt.Sprintf("act/block%d", block) }
