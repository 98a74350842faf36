package experiments

import (
	"fmt"
	"io"

	"ratel/internal/agoffload"
	"ratel/internal/data"
	"ratel/internal/engine"
	"ratel/internal/hw"
	"ratel/internal/itersim"
	"ratel/internal/model"
	"ratel/internal/nn"
	"ratel/internal/strategy"
	"ratel/internal/units"
)

func init() {
	register("optmodes", "Optimizer scheduling modes: simulated iteration comparison + real mini-engine exactness", optmodesExperiment)
}

// optmodesExperiment compares the optimizer scheduling modes twice over:
// the discrete-event simulator prices a paper-scale iteration under each
// agoffload schedule (the mode-comparison figure data), and the real mini
// engine runs the same fine-tune under a serialized optimizer stage and the
// default streaming state pipeline to report that the two are bit-identical.
func optmodesExperiment(w io.Writer) error {
	// ---- Simulated mode comparison (13B on the evaluation server) ----
	cfg, err := model.ByName("13B")
	if err != nil {
		return err
	}
	srv := hw.EvalServer(hw.RTX4090, 768*units.GiB, 12)
	type simVariant struct {
		name string
		mode agoffload.Mode
		opts agoffload.Options
	}
	simVariants := []simVariant{
		{"serialized (ZeRO stage)", agoffload.Serialized, agoffload.Options{}},
		{"optimized (Fig. 3b)", agoffload.Optimized, agoffload.Options{}},
		{"readiness depth-2", agoffload.Readiness, agoffload.Options{Depth: 2}},
		{"readiness depth-4", agoffload.Readiness, agoffload.Options{Depth: 4}},
	}
	fmt.Fprintf(w, "simulated iteration, %s batch 32 on the evaluation server (12 SSDs)\n", cfg.Name)
	fmt.Fprintf(w, "%-24s %10s %12s\n", "schedule", "iter (s)", "opt tail (s)")
	var baseline units.Seconds
	for i, v := range simVariants {
		p := strategy.Ratel
		p.Name = "Ratel/" + v.mode.String()
		p.GradMode = v.mode
		p.OptSched = v.opts
		rep, err := itersim.Simulate(p, cfg, 32, srv)
		if err != nil {
			return err
		}
		if i == 0 {
			baseline = rep.Makespan
		}
		fmt.Fprintf(w, "%-24s %10.2f %12.2f   (%.2fx vs serialized)\n",
			v.name, float64(rep.Makespan), float64(rep.OptimizerTail),
			float64(baseline)/float64(rep.Makespan))
	}

	// ---- Real mini-engine exactness ----
	modelCfg := nn.Config{Vocab: 48, Seq: 12, Hidden: 16, Heads: 2, Layers: 3, Batch: 4, Seed: 12}
	const steps = 12
	type engVariant struct {
		name string
		cfg  engine.Config
	}
	engVariants := []engVariant{
		{"serialized optimizer stage", engine.Config{Model: modelCfg, GradMode: agoffload.Serialized, Devices: 2}},
		{"streaming pipeline (default)", engine.Config{Model: modelCfg, GradMode: agoffload.Optimized, Devices: 2}},
	}
	fmt.Fprintln(w)
	var ref []float32
	for vi, v := range engVariants {
		e, err := engine.New(v.cfg)
		if err != nil {
			return err
		}
		loader, err := data.NewLoader(data.Progression, modelCfg.Batch, modelCfg.Seq, modelCfg.Vocab, 99)
		if err != nil {
			e.Close()
			return err
		}
		var first, last float64
		for s := 0; s < steps; s++ {
			tokens, targets := loader.Next()
			loss, err := e.TrainStep(tokens, targets)
			if err != nil {
				e.Close()
				return err
			}
			if s == 0 {
				first = loss
			}
			last = loss
		}
		var flat []float32
		for _, p := range e.Model().Params() {
			flat = append(flat, p.W.Data...)
		}
		// The last step's optimizer write-back reports at Close.
		if err := e.Close(); err != nil {
			return err
		}

		fmt.Fprintf(w, "%-28s loss %.4f -> %.4f", v.name, first, last)
		if vi == 0 {
			ref = flat
			fmt.Fprintln(w, "  [reference]")
			continue
		}
		diff := 0
		for i := range flat {
			if flat[i] != ref[i] {
				diff++
			}
		}
		if diff != 0 {
			return fmt.Errorf("optmodes: %s: %d/%d params differ from the serialized optimizer stage", v.name, diff, len(flat))
		}
		fmt.Fprintln(w, "  == bit-identical to serialized")
	}
	fmt.Fprintf(w, "\nthe streaming pipeline moves when state is read and written (read-ahead, write-behind), never what an update computes: bit-exact.\n")
	return nil
}
