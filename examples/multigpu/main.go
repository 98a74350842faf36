// Multi-GPU scaling: Ratel's holistic offloading on a server with several
// consumer GPUs (the paper's §V-G / Fig. 11 scenario), plus the §V-I
// cost-effectiveness comparison against a DGX-A100.
package main

import (
	"fmt"
	"log"

	"ratel"
	"ratel/internal/agoffload"
	"ratel/internal/cost"
	"ratel/internal/data"
	"ratel/internal/engine"
	"ratel/internal/itersim"
	"ratel/internal/model"
	"ratel/internal/nn"
	"ratel/internal/strategy"
)

func main() {
	base := ratel.EvalServer(ratel.RTX4090, 768*ratel.GiB, 12)

	fmt.Println("13B fine-tuning throughput, data parallel over consumer GPUs:")
	fmt.Printf("%-6s  %-14s  %-14s\n", "GPUs", "ZeRO-Infinity", "Ratel")
	for _, n := range []int{1, 2, 4} {
		srv := base.WithGPUs(n)
		gbatch := 32 * n
		zi := tput(strategy.ZeROInfinity, "13B", gbatch, srv)
		ra := tput(strategy.Ratel, "13B", gbatch, srv)
		fmt.Printf("%-6d  %-14s  %-14s\n", n, zi, ra)
	}

	fmt.Println("\ncost-effectiveness fine-tuning the 30B model (Fig. 13):")
	baseline, err := cost.MegatronBaseline(model.MustByName("30B"), 32)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  %-24s $%8.0f  %6.1f tok/s per $1k\n",
		baseline.Label, baseline.PriceUSD, baseline.TokensPerSecPer1kUSD)
	sweep, err := cost.RatelSweep(model.MustByName("30B"), base.WithGPUs(4), 64, []int{1, 3, 6, 12})
	if err != nil {
		panic(err)
	}
	for _, p := range sweep {
		fmt.Printf("  %-24s $%8.0f  %6.1f tok/s per $1k\n", p.Label, p.PriceUSD, p.TokensPerSecPer1kUSD)
	}
	fmt.Printf("best advantage: %.2fx (paper: up to 2.17x)\n", cost.BestAdvantage(sweep, baseline))

	// And the real thing at mini scale: the two data-parallel shards of each
	// global batch go through one engine as one gradient-accumulation step —
	// the arithmetic of §V-G's averaged all-reduce followed by one optimizer
	// pass, on the engine's one step path (what the extra GPUs add is
	// throughput, which the simulation above scales).
	fmt.Println("\nreal fine-tune over 2 data-parallel shards per step (mini model):")
	cfg := engine.Config{
		Model:    nn.Config{Vocab: 48, Seq: 12, Hidden: 16, Heads: 2, Layers: 3, Batch: 4, Seed: 2},
		GradMode: agoffload.Optimized,
		Devices:  2,
	}
	e, err := engine.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a, err := data.NewLoader(data.Progression, cfg.Model.Batch, cfg.Model.Seq, cfg.Model.Vocab, 1)
	if err != nil {
		log.Fatal(err)
	}
	b, err := data.NewLoader(data.Progression, cfg.Model.Batch, cfg.Model.Seq, cfg.Model.Vocab, 2)
	if err != nil {
		log.Fatal(err)
	}
	for step := 1; step <= 15; step++ {
		ta, ga := a.Next()
		tb, gb := b.Next()
		loss, err := e.TrainStepAccum([]engine.Batch{{Tokens: ta, Targets: ga}, {Tokens: tb, Targets: gb}})
		if err != nil {
			log.Fatal(err)
		}
		if step%5 == 0 || step == 1 {
			fmt.Printf("  step %2d  loss %.4f\n", step, loss)
		}
	}
	// Close is where the last step's trailing write-back reports.
	if err := e.Close(); err != nil {
		log.Fatal(err)
	}
}

func tput(p strategy.Policy, modelName string, gbatch int, srv ratel.Server) string {
	rep, err := itersim.SimulateMultiGPU(p, model.MustByName(modelName), gbatch, srv)
	if err != nil {
		return "-"
	}
	return fmt.Sprintf("%.0f tok/s", rep.TokensPerSec)
}
