package engine

import (
	"bytes"
	"slices"
	"testing"

	"ratel/internal/nn"
	"ratel/internal/opt"
)

// plainRef is the value reference the engine's bit-identity tests compare it
// against: a plain nn.Model trained with ForwardBackward, its groups updated
// one at a time by OutOfCoreAdam.UpdateGroup over a MemStore. It shares no
// engine or state-pipeline code, only the math: the model, the fp16 gradient
// round, Adam and the state's piece cut (SetWindow at the engine's depth).
type plainRef struct {
	t      testing.TB
	model  *nn.Model
	opt    *opt.OutOfCoreAdam
	groups []nn.ParamGroup
	sched  opt.Schedule
	// pending holds a delayed reference's gradients of the step before, one
	// copy per parameter; nil when there are none.
	pending [][]float32
}

// newPlainRef builds the reference for an engine built from cfg, with the
// defaults New and newEngine fill in.
func newPlainRef(t testing.TB, cfg Config) *plainRef {
	t.Helper()
	if cfg.Model.Vocab == 0 {
		cfg.Model = miniConfig()
	}
	if cfg.Adam == (opt.AdamConfig{}) {
		cfg.Adam = opt.DefaultAdam()
	}
	depth := cfg.PipelineDepth
	if depth == 0 {
		depth = DefaultPipelineDepth
	}
	m, err := nn.NewModel(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	r := &plainRef{t: t, model: m, opt: opt.NewOutOfCoreAdam(opt.MemStore{}, cfg.Adam, "states"),
		groups: m.ParamGroups(), sched: cfg.LRSchedule}
	r.opt.SetWindow(depth, r.groups)
	for _, g := range r.groups {
		if err := r.opt.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// backward runs every micro-batch's forward and backward, accumulating the
// gradients, averages them as the engine does and returns the mean loss.
func (r *plainRef) backward(micro []Batch) float64 {
	r.t.Helper()
	r.model.ZeroGrads()
	var total float64
	for _, b := range micro {
		loss, err := r.model.ForwardBackward(b.Tokens, b.Targets, nil)
		if err != nil {
			r.t.Fatal(err)
		}
		total += loss
	}
	if k := len(micro); k > 1 {
		for _, p := range r.model.Params() {
			p.G.Scale(float32(1) / float32(k))
		}
	}
	return total / float64(len(micro))
}

// update is one optimizer step over the gradients the parameters hold.
func (r *plainRef) update() {
	r.t.Helper()
	r.opt.BeginStep()
	if r.sched != nil {
		r.opt.SetLR(r.sched(r.opt.Step()))
	}
	for _, g := range r.groups {
		if err := r.opt.UpdateGroup(g); err != nil {
			r.t.Fatal(err)
		}
	}
}

// step is TrainStepAccum over micro (TrainStep with one batch).
func (r *plainRef) step(micro ...Batch) float64 {
	loss := r.backward(micro)
	r.update()
	return loss
}

// delayedStep is a DelayedUpdate engine's TrainStep: the batch's gradients
// are computed at the current parameters and held, and the ones the step
// before held, if any, are applied.
func (r *plainRef) delayedStep(b Batch) float64 {
	loss := r.backward([]Batch{b})
	var held [][]float32
	for _, p := range r.model.Params() {
		held = append(held, slices.Clone(p.G.Data))
	}
	r.flush()
	r.pending = held
	return loss
}

// flush is FlushDelayed: it applies the held gradients, if any.
func (r *plainRef) flush() {
	if r.pending == nil {
		return
	}
	for i, p := range r.model.Params() {
		copy(p.G.Data, r.pending[i])
	}
	r.pending = nil
	r.update()
}

// train runs n TrainSteps on the batches of steps from, from+1, ... (the
// reference's trainFrom).
func (r *plainRef) train(from, n int) []float64 {
	var losses []float64
	for s := from; s < from+n; s++ {
		losses = append(losses, r.step(batchesAt(r.model.Cfg, s, false)...))
	}
	return losses
}

// checkpoint is what SaveCheckpoint writes for the reference's state: the
// engine's header for the same groups at the reference's steps, then every
// group's record.
func (r *plainRef) checkpoint() []byte {
	r.t.Helper()
	header := (&Engine{groups: r.groups}).header(r.opt.Step(), r.model.Step())
	buf := bytes.NewBuffer(header)
	for _, g := range r.groups {
		if _, err := r.opt.WriteGroupTo(buf, g); err != nil {
			r.t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// sameCheckpoint checks that e saves the reference's checkpoint bytes now.
func sameCheckpoint(t *testing.T, what string, e *Engine, ref *plainRef) {
	t.Helper()
	var got bytes.Buffer
	if err := e.SaveCheckpoint(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.checkpoint()) {
		t.Fatalf("%s: checkpoint at step %d differs from the reference's", what, e.optimizer.Step())
	}
}

// stepOn runs one engine step over micro: TrainStep for one batch,
// TrainStepAccum for more.
func stepOn(t testing.TB, e *Engine, micro []Batch) float64 {
	t.Helper()
	var loss float64
	var err error
	if len(micro) == 1 {
		loss, err = e.TrainStep(micro[0].Tokens, micro[0].Targets)
	} else {
		loss, err = e.TrainStepAccum(micro)
	}
	if err != nil {
		t.Fatal(err)
	}
	return loss
}

// batchesAt is step s's micro-batches in the bit-identity tests: the batch
// of seed s, and under accumulation a second one of seed 100+s.
func batchesAt(cfg nn.Config, s int, accum bool) []Batch {
	tokens, targets := data(cfg, int64(s))
	micro := []Batch{{Tokens: tokens, Targets: targets}}
	if accum {
		t2, g2 := data(cfg, int64(100+s))
		micro = append(micro, Batch{Tokens: t2, Targets: g2})
	}
	return micro
}
