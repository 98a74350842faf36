package experiments

import (
	"fmt"
	"io"

	"ratel/internal/agoffload"
	"ratel/internal/hw"
	"ratel/internal/itersim"
	"ratel/internal/model"
	"ratel/internal/strategy"
	"ratel/internal/units"
)

func init() {
	register("optmodes", "Optimizer scheduling modes: simulated iteration comparison", optmodesExperiment)
}

// optmodesExperiment compares the optimizer scheduling modes on the
// discrete-event simulator, which prices a paper-scale iteration under each
// agoffload schedule (the mode-comparison figure data). That the streaming
// state pipeline is bit-identical to a serialized optimizer stage is the
// engine experiment's reference row and the optsched tests.
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
	return nil
}
