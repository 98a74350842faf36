package experiments

import (
	"fmt"
	"io"

	"ratel/internal/agoffload"
	"ratel/internal/data"
	"ratel/internal/engine"
	"ratel/internal/nn"
)

func init() {
	register("engine", "Real mini-engine run: correctness of active gradient offloading and offloading tiers", engineExperiment)
}

// engineExperiment fine-tunes the same miniature model with every gradient
// schedule and activation tier, printing the loss trajectories and the
// bit-equality verdicts — the live version of the correctness suite.
func engineExperiment(w io.Writer) error {
	modelCfg := nn.Config{Vocab: 48, Seq: 12, Hidden: 16, Heads: 2, Layers: 3, Batch: 4, Seed: 12}
	const steps = 10

	type variant struct {
		name string
		cfg  engine.Config
	}
	variants := []variant{
		{"serialized optimizer, recompute all", engine.Config{Model: modelCfg, GradMode: agoffload.Serialized, Devices: 2}},
		{"naive handlers, recompute all", engine.Config{Model: modelCfg, GradMode: agoffload.Naive, Devices: 2}},
		{"optimized handlers, recompute all", engine.Config{Model: modelCfg, GradMode: agoffload.Optimized, Devices: 2}},
		{"optimized handlers, all caches on SSD", engine.Config{Model: modelCfg, GradMode: agoffload.Optimized, Devices: 2,
			Swap: map[int]engine.Tier{0: engine.SwapSSD, 1: engine.SwapSSD, 2: engine.SwapSSD}}},
		{"optimized handlers, host tier", engine.Config{Model: modelCfg, GradMode: agoffload.Optimized, Devices: 2,
			Swap: map[int]engine.Tier{0: engine.SwapHost, 1: engine.SwapHost, 2: engine.SwapHost}}},
		{"one-step DELAYED update (footnote 4)", engine.Config{Model: modelCfg, GradMode: agoffload.Optimized, Devices: 2,
			DelayedUpdate: true}},
	}

	var ref []float32
	for vi, v := range variants {
		e, err := engine.New(v.cfg)
		if err != nil {
			return err
		}
		loader, err := data.NewLoader(data.Progression, modelCfg.Batch, modelCfg.Seq, modelCfg.Vocab, 99)
		if err != nil {
			e.Close()
			return err
		}
		var losses []float64
		for s := 0; s < steps; s++ {
			tokens, targets := loader.Next()
			loss, err := e.TrainStep(tokens, targets)
			if err != nil {
				e.Close()
				return err
			}
			losses = append(losses, loss)
		}
		if v.cfg.DelayedUpdate {
			if err := e.FlushDelayed(); err != nil {
				e.Close()
				return err
			}
		}
		var flat []float32
		for _, p := range e.Model().Params() {
			flat = append(flat, p.W.Data...)
		}
		st := e.Stats()
		// The last step's optimizer write-back reports at Close.
		if err := e.Close(); err != nil {
			return err
		}

		fmt.Fprintf(w, "%-42s loss %.4f -> %.4f", v.name, losses[0], losses[len(losses)-1])
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
		if diff == 0 {
			fmt.Fprintln(w, "  == bit-identical to reference")
		} else {
			fmt.Fprintf(w, "  != %d/%d parameters differ (stale)\n", diff, len(flat))
		}
		if st.ActBytesOffload+st.ActBytesHost > 0 {
			fmt.Fprintf(w, "%-42s activation traffic: ssd %v, host %v\n", "", st.ActBytesOffload, st.ActBytesHost)
		}
	}
	return nil
}
