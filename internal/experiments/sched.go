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
	"ratel/internal/nvme"
	"ratel/internal/strategy"
	"ratel/internal/units"
)

func init() {
	register("sched", "Transfer scheduler: simulated simplex vs duplex SSD lanes + real mini-engine exactness across activation I/O windows", schedExperiment)
}

// schedExperiment evaluates the transfer scheduler twice over, mirroring
// the optmodes experiment's shape. The discrete-event simulator prices a
// paper-scale iteration with optimizer-state traffic on the single shared
// SSDBus versus the duplex SSDRead/SSDWrite pair (the P5510's full-duplex
// 6.5/3.8 GB/s shape) across array widths: with one simplex lane the
// readiness prefetcher's state reads serialize against the gradient
// write-backs they overlap with, while the duplex model lets both
// directions progress at once — the same contention the real array
// scheduler's per-device read/write lanes remove. The win is largest
// exactly where the paper lives (one or two consumer SSDs, where the
// array is the bottleneck) and vanishes at the 12-SSD evaluation server
// whose array outruns the traffic. The real mini engine — whose array
// always runs the duplex priority lanes — then runs one fine-tune at every
// activation I/O window (the default depth, depth 1, synchronous) and diffs
// the trajectories param-for-param: the window and the scheduler move when
// I/O happens, never data, so every row must report bit-identical. (The
// FCFS single-lane array and an inverted class order survive only as test
// oracles; TestSchedBitIdentityMatrix pins the same identity against them.)
func schedExperiment(w io.Writer) error {
	// ---- Simulated simplex vs duplex iteration (13B, readiness depth-2) ----
	cfg, err := model.ByName("13B")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated iteration, %s batch 32, readiness depth-2, simplex SSDBus vs duplex SSDRead/SSDWrite\n", cfg.Name)
	fmt.Fprintf(w, "%-6s %14s %14s %10s\n", "ssds", "simplex (s)", "duplex (s)", "speedup")
	for _, ssds := range []int{1, 2, 4, 12} {
		srv := hw.EvalServer(hw.RTX4090, 768*units.GiB, ssds)
		var iter [2]units.Seconds
		for i, duplex := range []bool{false, true} {
			p := strategy.Ratel
			p.Name = "Ratel/readiness"
			p.GradMode = agoffload.Readiness
			p.OptSched = agoffload.Options{Depth: 2, Duplex: duplex}
			rep, err := itersim.Simulate(p, cfg, 32, srv)
			if err != nil {
				return err
			}
			iter[i] = rep.Makespan
		}
		fmt.Fprintf(w, "%-6d %14.2f %14.2f %9.2fx\n",
			ssds, float64(iter[0]), float64(iter[1]), float64(iter[0])/float64(iter[1]))
	}

	// ---- Real mini-engine I/O-window exactness matrix ----
	modelCfg := nn.Config{Vocab: 48, Seq: 12, Hidden: 16, Heads: 2, Layers: 3, Batch: 4, Seed: 12}
	const steps = 8
	baseCfg := func() engine.Config {
		return engine.Config{
			Model:    modelCfg,
			GradMode: agoffload.Optimized,
			Swap:     map[int]engine.Tier{0: engine.SwapSSD, 2: engine.SwapSSD},
			Devices:  2,
			SSD:      &nvme.Config{ReadBW: 256 << 20, WriteBW: 148 << 20, StripeSize: 1 << 12},
		}
	}
	engVariants := []struct {
		name string
		mut  func(*engine.Config)
	}{
		{"sched (default depth)", func(c *engine.Config) {}},
		{"sched (depth 1)", func(c *engine.Config) { c.PipelineDepth = 1 }},
	}
	fmt.Fprintln(w)
	var ref []float32
	var refLoss float64
	for vi, v := range engVariants {
		ecfg := baseCfg()
		v.mut(&ecfg)
		e, err := engine.New(ecfg)
		if err != nil {
			return err
		}
		loader, err := data.NewLoader(data.Progression, modelCfg.Batch, modelCfg.Seq, modelCfg.Vocab, 99)
		if err != nil {
			e.Close()
			return err
		}
		var last float64
		for s := 0; s < steps; s++ {
			tokens, targets := loader.Next()
			if last, err = e.TrainStep(tokens, targets); err != nil {
				e.Close()
				return err
			}
		}
		var flat []float32
		for _, p := range e.Model().Params() {
			flat = append(flat, p.W.Data...)
		}
		// The last step's optimizer write-back reports at Close.
		if err := e.Close(); err != nil {
			return err
		}

		fmt.Fprintf(w, "%-26s loss %.4f", v.name, last)
		if vi == 0 {
			ref, refLoss = flat, last
			fmt.Fprintln(w, "  [reference]")
			continue
		}
		diff := 0
		for i := range flat {
			if flat[i] != ref[i] {
				diff++
			}
		}
		if diff == 0 && last == refLoss {
			fmt.Fprintln(w, "  == bit-identical to the default depth")
		} else {
			fmt.Fprintf(w, "  != %d/%d params differ from the default depth — I/O timing changed values\n",
				diff, len(flat))
		}
	}
	fmt.Fprintf(w, "\nthe scheduler and the window reorder I/O, never data: every configuration lands the same trajectory.\n")
	return nil
}
