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
	register("sched", "Transfer scheduler: simulated simplex vs duplex SSD lanes", schedExperiment)
}

// schedExperiment evaluates the transfer scheduler on the discrete-event
// simulator, which prices a paper-scale iteration with optimizer-state traffic
// on the single shared SSDBus versus the duplex SSDRead/SSDWrite pair (the
// P5510's full-duplex 6.5/3.8 GB/s shape) across array widths: with one
// simplex lane the readiness prefetcher's state reads serialize against the
// gradient write-backs they overlap with, while the duplex model lets both
// directions progress at once — the same contention the real array
// scheduler's per-device read/write lanes remove. The win is largest exactly
// where the paper lives (one or two consumer SSDs, where the array is the
// bottleneck) and vanishes at the 12-SSD evaluation server whose array
// outruns the traffic. That the window and the scheduler move when I/O
// happens, never data, is the engine experiment's depth-1 row and
// TestSchedBitIdentityMatrix.
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
	return nil
}
