// Package core is Ratel's public facade, mirroring the paper's user
// interface (Fig. 4): Init runs the hardware-aware profiling stage, Hook
// installs automatic activation management, and the optimizer is wrapped in
// active gradient offloading so `optimizer.step()` disappears from the
// user's training loop. A training step is just TrainStep.
//
// The package also exposes the analytical surface the paper's evaluation is
// built on: per-iteration prediction for any system/model/server, capacity
// solving, and the activation-swap planner.
package core

import (
	"fmt"
	"io"

	"ratel/internal/agoffload"
	"ratel/internal/capacity"
	"ratel/internal/engine"
	"ratel/internal/hw"
	"ratel/internal/itersim"
	"ratel/internal/model"
	"ratel/internal/nn"
	"ratel/internal/obs"
	"ratel/internal/opt"
	"ratel/internal/plan"
	"ratel/internal/strategy"
	"ratel/internal/units"
)

// Options configures a Ratel session.
type Options struct {
	// Model sizes the transformer to fine-tune.
	Model nn.Config
	// Adam overrides the optimizer hyperparameters (DefaultAdam if zero).
	Adam opt.AdamConfig
	// GradMode selects the active-gradient-offloading schedule; the default
	// is the optimized pipeline of Fig. 3b.
	GradMode agoffload.Mode
	// Devices is the NVMe array width (1 if zero); Dir backs it with files
	// when non-empty.
	Devices int
	Dir     string
	// Rates describes the hardware the activation planner should optimize
	// for; zero values fall back to the paper's evaluation server.
	Rates engine.HWRates
	// LRSchedule, when non-nil, drives the learning rate per optimizer step
	// (e.g. opt.WarmupCosine).
	LRSchedule opt.Schedule
	// Tracer, when non-nil, records wall-clock spans for every engine stage
	// (export with trace.WriteEngineJSON). Metrics, when non-nil, receives
	// per-step instrument updates (export with Registry.PublishExpvar).
	// Neither affects computed values.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// Session is an initialized Ratel training context.
type Session struct {
	eng  *engine.Engine
	plan plan.Plan
	opts Options
}

// Init builds the engine, runs the hardware-aware profiling stage on one
// synthetic batch, plans activation swapping with Algorithm 1, and installs
// the hooks (the Ratel_init + Ratel_hook + Ratel_Optimizer sequence of
// Fig. 4).
func Init(opts Options) (*Session, error) {
	eng, err := engine.New(engine.Config{
		Model:      opts.Model,
		Adam:       opts.Adam,
		GradMode:   opts.GradMode,
		Devices:    opts.Devices,
		Dir:        opts.Dir,
		LRSchedule: opts.LRSchedule,
		Tracer:     opts.Tracer,
		Metrics:    opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	s := &Session{eng: eng, opts: opts}

	rates := opts.Rates
	if rates.THPG == 0 {
		srv := hw.EvalServer(hw.RTX4090, 768*units.GiB, max(opts.Devices, 1))
		rates = engine.HWRates{
			THPG:     srv.GPU.PeakFP16,
			BWG:      srv.Link.GPUPerDirection,
			BWS2M:    srv.BWS2M(),
			BWM2S:    srv.BWM2S(),
			MemAvail: 64 * units.GiB,
		}
	}
	tokens := make([][]int, opts.Model.Batch)
	for i := range tokens {
		tokens[i] = make([]int, opts.Model.Seq)
	}
	pl, swap, err := eng.ProfileAndPlan(tokens, rates)
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("core: profiling stage: %w", err)
	}
	s.plan = pl
	if err := eng.SetSwap(swap); err != nil {
		eng.Close()
		return nil, err
	}
	return s, nil
}

// TrainStep runs one synchronous fine-tuning iteration: forward, backward
// with planned activation swapping/recomputation, and the hidden optimizer.
func (s *Session) TrainStep(tokens, targets [][]int) (float64, error) {
	return s.eng.TrainStep(tokens, targets)
}

// TrainStepAccum runs one optimizer step over several micro-batches
// (gradient accumulation), returning the mean loss.
func (s *Session) TrainStepAccum(micro []engine.Batch) (float64, error) {
	return s.eng.TrainStepAccum(micro)
}

// Generate continues a prompt greedily for steps tokens with the fine-tuned
// model (inference mode: dropout off).
func (s *Session) Generate(prompt []int, steps int) ([]int, error) {
	return s.eng.Model().Generate(prompt, steps)
}

// Plan returns the activation-swapping plan chosen at Init.
func (s *Session) Plan() plan.Plan { return s.plan }

// Model exposes the fine-tuned model (weights are the fp16 working copies;
// fp32 masters live in the NVMe store).
func (s *Session) Model() *nn.Model { return s.eng.Model() }

// Stats reports the session's data-movement counters.
func (s *Session) Stats() engine.Stats { return s.eng.Stats() }

// LastStepMetrics reports the record of the most recent optimizer step — the
// newest of FlightRecords (zero value before the first TrainStep).
func (s *Session) LastStepMetrics() obs.StepRecord { return s.eng.LastStepMetrics() }

// Flows reports the cumulative byte-flow ledger (every edge x purpose).
func (s *Session) Flows() obs.FlowSnapshot { return s.eng.Flows() }

// FlightRecords returns the engine's crash-ring of recent step records,
// oldest first — the payload of a flight-recorder dump.
func (s *Session) FlightRecords() []obs.StepRecord { return s.eng.FlightRecords() }

// SaveCheckpoint writes the session's full training state (fp32 masters and
// optimizer moments) to w: a format-2 checkpoint, each parameter group's
// stored state object with its CRC-32C, streamed through one group's worth
// of memory. Restoring and continuing is bit-identical to an uninterrupted
// run. A save that fails part-way leaves w holding a prefix that
// LoadCheckpoint refuses, so a caller replacing a file should write a
// temporary one and rename it (as rateltrain -checkpoint does).
func (s *Session) SaveCheckpoint(w io.Writer) error { return s.eng.SaveCheckpoint(w) }

// LoadCheckpoint restores training state saved by SaveCheckpoint, reading
// exactly the checkpoint's bytes from r. A checkpoint of another format or
// model, or with a corrupt header, is refused with the session untouched; a
// corrupt or truncated state object after the first leaves the session
// refusing to train or save until a checkpoint is restored whole.
func (s *Session) LoadCheckpoint(r io.Reader) error { return s.eng.LoadCheckpoint(r) }

// Close releases the NVMe array. The optimizer's write-back trails each
// step, so the last step's failure — if it failed — is returned here: check
// the result.
func (s *Session) Close() error { return s.eng.Close() }

// --- Analytical surface ---

// Predict simulates one training iteration of a named system fine-tuning a
// catalog model on a server and reports stage times and throughput.
func Predict(policyName, modelName string, batch int, srv hw.Server) (itersim.Report, error) {
	p, err := strategy.ByName(policyName)
	if err != nil {
		return itersim.Report{}, err
	}
	cfg, err := model.ByName(modelName)
	if err != nil {
		return itersim.Report{}, err
	}
	return itersim.Simulate(p, cfg, batch, srv)
}

// MaxTrainable reports the largest catalog model the named system can
// fine-tune on the server at the given batch size.
func MaxTrainable(policyName string, srv hw.Server, batch int) (model.Config, bool, error) {
	p, err := strategy.ByName(policyName)
	if err != nil {
		return model.Config{}, false, err
	}
	candidates := append(append([]model.Config{}, model.SmallLMs...), model.TableIV...)
	cfg, ok := capacity.MaxModel(p, srv, batch, candidates)
	return cfg, ok, nil
}

// PlanFor runs the holistic traffic-aware planner for Ratel fine-tuning a
// catalog model on a server and returns the swap decision and predicted
// iteration time.
func PlanFor(modelName string, batch int, srv hw.Server) (plan.Plan, error) {
	cfg, err := model.ByName(modelName)
	if err != nil {
		return plan.Plan{}, err
	}
	return plan.Optimize(capacity.PlannerProfile(strategy.Ratel, cfg, batch, srv))
}
