package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/data"
	"ratel/internal/engine"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/sim"
	"ratel/internal/units"
)

func init() {
	register("calib", "Sim-vs-real calibration: measured engine timeline vs discrete-event schedule", calibExperiment)
}

// calibExperiment runs real engine steps under the span tracer, folds the
// recorded timeline into per-resource busy times, then replays the same
// iteration through the discrete-event simulator with rates calibrated
// from the run itself — the report shows where the analytical model and
// the living engine agree and where they drift.
func calibExperiment(w io.Writer) (err error) {
	modelCfg := nn.Config{Vocab: 48, Seq: 12, Hidden: 16, Heads: 2, Layers: 3, Batch: 4, Seed: 5}
	const steps = 8

	tr := obs.NewTracer(obs.DefaultCapacity)
	e, err := engine.New(engine.Config{
		Model: modelCfg, GradMode: agoffload.Optimized, Devices: 2,
		Swap:   map[int]engine.Tier{0: engine.SwapSSD, 1: engine.SwapSSD, 2: engine.SwapSSD},
		Tracer: tr,
	})
	if err != nil {
		return err
	}
	// The last step's optimizer write-back reports at Close.
	defer func() { err = errors.Join(err, e.Close()) }()
	loader, err := data.NewLoader(data.Progression, modelCfg.Batch, modelCfg.Seq, modelCfg.Vocab, 42)
	if err != nil {
		return err
	}

	// One warm-up step (page faults, pool spin-up), then measure.
	tokens, targets := loader.Next()
	if _, err := e.TrainStep(tokens, targets); err != nil {
		return err
	}
	run, err := calibMeasure(e, tr, loader, steps)
	if err != nil {
		return err
	}
	spans := run.spans

	// ---- Fold the measured timeline ----
	// Average duration per span name, for per-chunk comparisons.
	avg := make(map[string]time.Duration)
	count := make(map[string]int)
	for _, s := range spans {
		avg[s.Name] += s.Duration()
		count[s.Name]++
	}
	for name, total := range avg {
		avg[name] = total / time.Duration(count[name])
	}
	// Per-resource busy time (interval union — concurrent spans on one
	// lane count once), restricted to the backward+optimizer phase the
	// simulated schedule models.
	bwdGPU := func(s obs.Span) bool {
		return s.Lane == obs.LaneCompute &&
			(strings.HasSuffix(s.Name, "/bwd") || strings.HasSuffix(s.Name, "/recompute"))
	}
	optSSD := func(s obs.Span) bool {
		return (s.Lane == obs.LaneNVMeRead || s.Lane == obs.LaneNVMeWrite) &&
			strings.HasPrefix(s.Name, "states/")
	}
	adamLane := func(s obs.Span) bool { return s.Lane == obs.LaneAdam }
	busyWhere := func(keep func(obs.Span) bool) time.Duration {
		var sub []obs.Span
		for _, s := range spans {
			if keep(s) {
				sub = append(sub, s)
			}
		}
		from, to := obs.Window(sub)
		return obs.LanesBusy(sub, obs.Lanes(sub), from, to)
	}
	measured := map[sim.ResourceID]time.Duration{
		sim.GPUCompute: busyWhere(bwdGPU) / steps,
		sim.CPUAdam:    busyWhere(adamLane) / steps,
		sim.SSDBus:     busyWhere(optSSD) / steps,
	}
	measuredSpan := (run.bwd + run.drain) / steps

	// ---- Build the simulated iteration from calibrated rates ----
	adamRate := float64(run.adamParams) / run.adamBusy.Seconds()
	// State-streaming bandwidth measured from this very run: the state bytes
	// the flow ledger counted each way, over the time the "states/" object
	// spans kept each direction busy. The simulated handlers move the same
	// bytes per parameter.
	totalParams := int64(e.Model().NumParams())
	readPerParam := float64(run.stateRead) / float64(totalParams*steps)
	writePerParam := float64(run.stateWrite) / float64(totalParams*steps)
	stateReadBusy := busyWhere(func(s obs.Span) bool {
		return s.Lane == obs.LaneNVMeRead && strings.HasPrefix(s.Name, "states/")
	})
	stateWriteBusy := busyWhere(func(s obs.Span) bool {
		return s.Lane == obs.LaneNVMeWrite && strings.HasPrefix(s.Name, "states/")
	})
	rates := agoffload.Rates{AdamParamsPerSec: adamRate}
	if stateReadBusy > 0 && stateWriteBusy > 0 {
		rates.BWS2M = units.BytesPerSecond(float64(run.stateRead) / stateReadBusy.Seconds())
		rates.BWM2S = units.BytesPerSecond(float64(run.stateWrite) / stateWriteBusy.Seconds())
	}

	// Gradient-arrival tasks: the measured average backward (plus
	// recomputation) time per group, chained in arrival order — head
	// first, then blocks high to low, then the embedding (§IV-C).
	groups := e.Model().ParamGroups()
	type arrival struct {
		group nn.ParamGroup
		cost  time.Duration
	}
	order := []arrival{{groups[len(groups)-1], avg["head/bwd"]}}
	for i := len(groups) - 2; i >= 1; i-- {
		g := groups[i]
		order = append(order, arrival{g, avg[g.Name+"/bwd"] + avg[g.Name+"/recompute"]})
	}
	order = append(order, arrival{groups[0], avg["embed/bwd"]})

	var tasks []sim.Task
	id := 0
	var chunks []agoffload.Chunk
	prev := -1
	for _, a := range order {
		t := sim.Task{ID: id, Label: a.group.Name + "/bwd", Resource: sim.GPUCompute,
			Duration: units.Seconds(a.cost.Seconds())}
		if prev >= 0 {
			t.Deps = []int{prev}
		}
		tasks = append(tasks, t)
		n := float64(a.group.NumParams())
		chunks = append(chunks, agoffload.Chunk{
			Label: a.group.Name, Params: int64(n), ArrivalDep: id,
			ReadBytes: units.Bytes(n * readPerParam), WriteBytes: units.Bytes(n * writePerParam),
		})
		prev = id
		id++
	}
	optTasks, _, _, err := agoffload.Schedule(agoffload.Optimized, chunks, id, rates)
	if err != nil {
		return err
	}
	res, err := sim.Run(append(tasks, optTasks...))
	if err != nil {
		return err
	}
	simSpan := res.Makespan.Duration()

	// ---- Report ----
	fmt.Fprintf(w, "calibration: %d measured engine steps (3 blocks on SSD, optimized offloading)\n", steps)
	fmt.Fprintf(w, "calibrated rates: adam %.3g params/s, state read %.1f MB/s, write %.1f MB/s (%.2f and %.2f B/param, from the flow ledger)\n\n",
		adamRate, float64(rates.BWS2M)/1e6, float64(rates.BWM2S)/1e6, readPerParam, writePerParam)
	fmt.Fprintf(w, "backward+optimizer phase   measured %10v   simulated %10v   drift %+6.1f%%\n",
		measuredSpan.Round(time.Microsecond), simSpan.Round(time.Microsecond), drift(simSpan, measuredSpan))
	fmt.Fprintf(w, "\n%-12s %14s %7s %14s %7s %8s\n", "resource", "measured-busy", "frac", "sim-busy", "frac", "drift")
	for _, r := range []sim.ResourceID{sim.GPUCompute, sim.CPUAdam, sim.SSDBus} {
		mBusy := measured[r]
		sBusy := res.Busy[r].Duration()
		fmt.Fprintf(w, "%-12s %14v %6.1f%% %14v %6.1f%% %+7.1f%%\n",
			string(r),
			mBusy.Round(time.Microsecond), frac(mBusy, measuredSpan),
			sBusy.Round(time.Microsecond), 100*res.Utilization(r),
			drift(sBusy, mBusy))
	}
	fmt.Fprintf(w, "\n%-12s %14s %14s %8s\n", "adam chunk", "measured", "simulated", "drift")
	for _, c := range chunks {
		mDur := avg[c.Label+"/opt-adam"]
		sDur := time.Duration(float64(c.Params) / adamRate * float64(time.Second))
		fmt.Fprintf(w, "%-12s %14v %14v %+7.1f%%\n",
			c.Label, mDur.Round(time.Microsecond), sDur.Round(time.Microsecond), drift(sDur, mDur))
	}
	fmt.Fprintf(w, "\nper-resource drift bounds the rate-model error; phase-span drift is engine\nwork the schedule leaves out — gradient marshalling, cache decode, channel\nhand-off.\n")
	return calibForwardOverlap(w)
}

// calibForwardOverlap calibrates the write-behind activation window against
// its analytic bounds. One iteration shape runs through a Table III-shaped
// throttled array with a depth-3 window, and the run's own span timeline
// yields the two discrete-event bounds: serial C+W (compute, then write —
// no overlap at all) and full overlap max(C, W) (every write behind
// compute). The measured forward wall should land between them; where it
// lands is the overlap the window actually recovered.
func calibForwardOverlap(w io.Writer) (err error) {
	mcfg := nn.Config{Vocab: 64, Seq: 96, Hidden: 16, Heads: 2, Layers: 4, Batch: 2, Seed: 5}
	const steps = 4
	tr := obs.NewTracer(obs.DefaultCapacity)
	e, err := engine.New(engine.Config{
		Model: mcfg, GradMode: agoffload.Serialized, Devices: 3,
		Swap: map[int]engine.Tier{
			0: engine.SwapSSD, 1: engine.SwapSSD, 2: engine.SwapSSD, 3: engine.SwapSSD,
		},
		// Same device shape as BENCH_overlap.json: Intel P5510 read:write
		// ratio, scaled 1/200 to match this model's small blobs.
		SSD: &nvme.Config{
			ReadBW:     units.BytesPerSecond(33 << 20),
			WriteBW:    units.BytesPerSecond(19 << 20),
			StripeSize: 1 << 16,
		},
		PipelineDepth: 3,
		Tracer:        tr,
	})
	if err != nil {
		return err
	}
	// The last step's optimizer write-back reports at Close.
	defer func() { err = errors.Join(err, e.Close()) }()
	loader, err := data.NewLoader(data.Progression, mcfg.Batch, mcfg.Seq, mcfg.Vocab, 42)
	if err != nil {
		return err
	}
	tokens, targets := loader.Next()
	if _, err := e.TrainStep(tokens, targets); err != nil {
		return err
	}
	tr.Reset()
	var fwd time.Duration
	for s := 0; s < steps; s++ {
		tokens, targets = loader.Next()
		if _, err := e.TrainStep(tokens, targets); err != nil {
			return err
		}
		fwd += e.LastStepMetrics().Forward
	}
	fwd /= steps
	spans := tr.Spans()

	busy := func(keep func(obs.Span) bool) time.Duration {
		var sub []obs.Span
		for _, s := range spans {
			if keep(s) {
				sub = append(sub, s)
			}
		}
		if len(sub) == 0 {
			return 0
		}
		from, to := obs.Window(sub)
		return obs.LanesBusy(sub, obs.Lanes(sub), from, to) / steps
	}
	compute := busy(func(s obs.Span) bool {
		return s.Lane == obs.LaneCompute && (strings.HasSuffix(s.Name, "/fwd") || s.Name == "loss")
	})
	// Concurrent blob writes share each device's throttle, so their interval
	// union is the time the write lanes were busy — what the same writes
	// would take back to back.
	writes := busy(func(s obs.Span) bool {
		return s.Lane == obs.LaneNVMeWrite && strings.HasPrefix(s.Name, "act/")
	})
	serial := compute + writes
	ideal := compute
	if writes > ideal {
		ideal = writes
	}
	recovered := 0.0
	if serial > ideal {
		recovered = 100 * (serial - fwd).Seconds() / (serial - ideal).Seconds()
	}
	fmt.Fprintf(w, "\nforward activation overlap (4 blocks on SSD, Table III / 200, depth-3 window)\n")
	fmt.Fprintf(w, "sim bounds: serial C+W %v, full overlap max(C,W) %v  (C %v, W %v)\n",
		serial.Round(time.Microsecond), ideal.Round(time.Microsecond),
		compute.Round(time.Microsecond), writes.Round(time.Microsecond))
	fmt.Fprintf(w, "measured forward: %v (drift vs full overlap %+.1f%%) — overlap recovered %.0f%%\n",
		fwd.Round(time.Microsecond), drift(ideal, fwd), recovered)
	return nil
}

// calibRun is what calib measures over its window of steps: the traced
// spans, the step metrics it sums, and the optimizer-state bytes the flow
// ledger counted read from the array and written to it.
type calibRun struct {
	spans                 []obs.Span
	bwd, drain, adamBusy  time.Duration
	adamParams            int64
	stateRead, stateWrite int64
}

// calibMeasure runs steps traced steps of e. Stats joins the trailing
// write-back at both edges, so the spans and the ledger's bytes cover the
// same window: exactly the measured steps' state traffic.
func calibMeasure(e *engine.Engine, tr *obs.Tracer, loader *data.Loader, steps int) (calibRun, error) {
	var run calibRun
	e.Stats()
	tr.Reset()
	before := e.Flows()
	for s := 0; s < steps; s++ {
		tokens, targets := loader.Next()
		if _, err := e.TrainStep(tokens, targets); err != nil {
			return run, err
		}
		m := e.LastStepMetrics()
		run.bwd += m.Backward
		run.drain += m.OptimizerDrain
		run.adamBusy += m.AdamBusy
		run.adamParams += m.AdamParams
	}
	e.Stats()
	d := e.Flows().Sub(before)
	run.stateRead, run.stateWrite = d.Get(obs.EdgeHostNVMeRead, obs.FlowOptState), d.Get(obs.EdgeHostNVMeWrite, obs.FlowOptState)
	run.spans = tr.Spans()
	if len(run.spans) == 0 {
		return run, fmt.Errorf("calib: tracer recorded no spans")
	}
	return run, nil
}

func drift(simulated, measured time.Duration) float64 {
	if measured <= 0 {
		return 0
	}
	return 100 * (simulated.Seconds() - measured.Seconds()) / measured.Seconds()
}

func frac(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part.Seconds() / whole.Seconds()
}
