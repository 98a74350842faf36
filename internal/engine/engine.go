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
	// Optimized (pipelined handlers overlapping backward); New refuses others.
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
	// blockArena what lives for one block's pass (its cache's tensors —
	// computed, or decoded — and its temporaries; releaseBlock). runBatch
	// resets both and installs them on the model for its own duration, so
	// between steps (EvalLoss, ProfileAndPlan, Generate) the model allocates
	// on the heap. inputs[i] is block i's input in the batch in progress.
	// released is a test hook, called after every release of arena memory with
	// the tensor on its way to the next block (nil at the top of a batch).
	stepArena, blockArena tensor.Arena
	inputs                []*tensor.Tensor
	released              func(carried *tensor.Tensor)
	// depth is the resolved activation I/O window; win owns the ring and moves
	// SwapSSD blobs between it and the array in both directions (pipeline.go).
	// plan is the step's schedule for Config.Swap at that depth (plan.go).
	depth int
	win   *actWindow
	plan  []cell
	// states is the optimizer state pipeline (opt.StatePipeline), the
	// engine's only optimizer path: GradMode only decides when the step
	// goroutine submits to it and waits on it (DelayedUpdate: one step
	// late). serialized collects the groups a Serialized step updates
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

	// submittedN counts the updates this step handed to the state pipeline,
	// folded into the step record at noteStep.
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

	// stats is the engine's counters, the step goroutine's like the rest: the
	// step counts into it, and Stats copies it with the array's.
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
	if err := validGradMode(cfg.GradMode); err != nil {
		return nil, err
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
		optimizer: opt.NewOutOfCoreAdam(stateStore{a}, cfg.Adam, "states"),
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
	e.replan()
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
	// The state pipeline's stage goroutine starts last so no
	// construction-error path has to stop it: every earlier failure closes
	// just the array.
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
	e.win = &actWindow{array: a, tracer: cfg.Tracer, labels: e.labels, blobLen: e.blobLen, reuses: &e.arena.blobReuses,
		ring: make([]ringSlot, e.depth+1), syncIO: cfg.oracleSyncIO}
	return e, nil
}

// Close joins the optimizer's trailing write-back and any activation
// transfer still in flight, stops the state pipeline, and releases the NVMe
// array. The last step's write-back reports here: the result is the latched
// optimizer failure (optErr) joined with the activation window's and the
// array's. A step-goroutine call.
func (e *Engine) Close() error {
	e.joinWriteBack()
	err := e.win.barrier()
	e.states.Close()
	return errors.Join(e.optErr, err, e.array.Close())
}

// stateStore is the array as the optimizer's opt.Store: its transfers'
// tickets as opt.Tickets.
type stateStore struct{ *nvme.Array }

func (s stateStore) Start(key string, buf []byte, write bool) opt.Ticket {
	return s.Array.Start(key, buf, write)
}

// Model exposes the underlying model (its weights are the P16 working
// copies).
func (e *Engine) Model() *nn.Model { return e.model }

// Array exposes the NVMe substrate for inspection and fault injection. Raw
// access can see write-back still in flight; Stats().SSD is the joined view.
func (e *Engine) Array() *nvme.Array { return e.array }

// Stats returns a snapshot of the engine's counters. It joins the trailing
// write-back first, so Stats then Flows reconcile exactly: a step-goroutine
// call, unlike the never-blocking LastStepMetrics, FlightRecords and metrics
// registry.
func (e *Engine) Stats() Stats {
	e.joinWriteBack()
	s := e.stats
	s.ActBytesResident, s.SSD = e.win.resident, e.array.Stats()
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

// validGradMode refuses any mode but the three gradsReady schedules.
func validGradMode(m agoffload.Mode) error {
	if m != agoffload.Serialized && m != agoffload.Naive && m != agoffload.Optimized {
		return fmt.Errorf("engine: gradient mode %v is not one the engine runs", m)
	}
	return nil
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

// runBatch executes one forward/backward pass, accumulating gradients: it
// runs the step plan (plan.go) cell by cell, and any cell's failure ends the
// batch at abortBatch. When apply is set (the step's last micro-batch) each
// completed group is handed to the optimizer in gradient-arrival order. The
// returned durations are the forward and backward stage wall times.
func (e *Engine) runBatch(tokens, targets [][]int, apply bool) (loss float64, fwdDur, bwdDur time.Duration, err error) {
	m := e.model
	m.NextStep() // fresh dropout masks; recomputation below replays them
	tr := e.tracer
	// The batch's working set: whatever the last batch left in the arenas —
	// finished or failed, a kept cache included — is dead here (releaseBlock(nil)
	// tells the test hook), and only here is either buffer (re)allocated.
	e.stepArena.Reset()
	e.blockArena.Reset()
	e.releaseBlock(nil)
	m.SetArena(&e.stepArena, &e.blockArena)
	defer m.SetArena(nil, nil)

	// h is what flows between cells: a block's input in forward, the gradient
	// of its output in backward. A block's cache is its own (Block.Cache):
	// forward, recompute or revive fills it, and offload, pin and backward
	// read it.
	var h, lnOut, logits, dlogits *tensor.Tensor
	fwdStart := time.Now()
	bwdStart := fwdStart
	for _, step := range e.plan {
		i := step.block
		switch step.op {
		case opEmbed:
			tr.Do(obs.LaneCompute, labelEmbedFwd, func() { h, err = m.Embed(tokens) })
		case opForward:
			e.inputs[i] = h
			tr.Do(obs.LaneCompute, e.labels[i].fwd, func() { h, _, err = m.Blocks[i].Forward(h) })
		case opOffload:
			// Write-behind: block i+1 computes while the array puts the blob.
			stash := func(blob []byte) error { return e.stashCache(blob, m.Blocks[i].Cache(), e.labels[i].offload) }
			if err = e.win.offload(i, stash); err == nil {
				e.stats.ActBytesOffload += units.Bytes(e.blobLen)
			}
		case opPin:
			if err = e.stashCache(e.arena.hostBuf(i, e.blobLen), m.Blocks[i].Cache(), e.labels[i].pin); err == nil {
				e.arena.host[i].pinned = true
				e.stats.ActBytesHost += units.Bytes(e.blobLen)
			}
		case opRelease:
			e.releaseBlock(h)
		case opHead:
			tr.Do(obs.LaneCompute, labelHeadFwd, func() { lnOut, logits, err = m.HeadForward(h) })
		case opLoss:
			tr.Do(obs.LaneCompute, labelLoss, func() { loss, dlogits, err = m.CrossEntropy(logits, targets) })
		case opBarrier:
			// Head forward and the loss overlapped the tail writes; any write
			// error surfaces here, and backward starts with every slot free.
			if err = e.win.barrier(); err != nil {
				err = fmt.Errorf("engine: offload activations: %w", err)
				break
			}
			fwdDur = time.Since(fwdStart)
			tr.Instant(obs.LaneStep, labelFwdEnd)
			bwdStart = time.Now()
		case opHeadBackward:
			tr.Do(obs.LaneCompute, labelHeadBwd, func() { h, err = m.HeadBackward(h, lnOut, dlogits) })
			if err == nil {
				h.RoundFP16InPlace()
			}
		case opFetch:
			err = e.win.prefetch(i)
		case opConsume:
			err = e.win.consume(i, step.resident, func(blob []byte) error { return e.reviveCache(blob, i) })
		case opRevive:
			hb := &e.arena.host[i]
			if !hb.pinned {
				err = fmt.Errorf("engine: block %d host-tier cache missing", i)
			} else if err = e.reviveCache(hb.blob, i); err == nil {
				hb.pinned = false
			}
		case opRecompute:
			tr.Do(obs.LaneCompute, e.labels[i].recompute, func() { _, err = m.Blocks[i].Recompute(e.inputs[i]) })
			if err == nil {
				e.stats.RecomputedBlocks++
			}
		case opBackward:
			tr.Do(obs.LaneCompute, e.labels[i].bwd, func() { h, err = m.Blocks[i].Backward(m.Blocks[i].Cache(), h) })
			if err == nil {
				h.RoundFP16InPlace()
			}
		case opEmbedBackward:
			tr.Do(obs.LaneCompute, labelEmbedBwd, func() { err = m.EmbedBackward(tokens, h) })
		case opGrads:
			if apply {
				err = e.gradsReady(e.groups[i+1])
			}
		}
		if err != nil {
			return 0, fwdDur, bwdDur, e.abortBatch(err)
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
// tier, into block i's cache, on tensors of the block's scope with its input
// installed, and credits it. The cache lives where a recomputed or a kept one
// does, until the block's backward has run.
func (e *Engine) reviveCache(blob []byte, i int) error {
	c := e.model.Blocks[i].Cache()
	e.geom.shapeCache(c, &e.blockArena)
	if err := e.arena.decode(c, blob, e.inputs[i]); err != nil {
		return err
	}
	e.stats.ActBytesFetched += units.Bytes(len(blob))
	e.flows.Add(obs.EdgeCodecDecode, obs.FlowActivations, int64(len(blob)))
	e.flows.Add(obs.EdgeComputeHost, obs.FlowActivations, int64(len(blob)))
	return nil
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
