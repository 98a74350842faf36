// Staleness: why Ratel insists on synchronous updates. ZeRO-Offload's
// one-step delayed update (footnote 4 of the paper) overlaps the optimizer
// with the next iteration's compute — but the gradients it computes are
// then one update behind, changing the training trajectory. Active gradient
// offloading (§IV-C) achieves the overlap *without* the staleness.
//
// This example trains three identical models: serialized optimizer,
// optimized active gradient offloading, and one-step delayed update. The
// first two finish with bit-identical parameters; the delayed run diverges.
package main

import (
	"fmt"
	"log"

	"ratel/internal/agoffload"
	"ratel/internal/data"
	"ratel/internal/engine"
	"ratel/internal/nn"
)

func main() {
	modelCfg := nn.Config{Vocab: 32, Seq: 12, Hidden: 16, Heads: 2, Layers: 3, Batch: 4, Seed: 5}
	const steps = 12

	run := func(name string, grad agoffload.Mode, delayed bool) []float32 {
		e, err := engine.New(engine.Config{Model: modelCfg, GradMode: grad, DelayedUpdate: delayed, Devices: 2})
		if err != nil {
			log.Fatal(err)
		}
		loader, err := data.NewLoader(data.Progression, modelCfg.Batch, modelCfg.Seq, modelCfg.Vocab, 9)
		if err != nil {
			log.Fatal(err)
		}
		var loss float64
		for s := 0; s < steps; s++ {
			tokens, targets := loader.Next()
			if loss, err = e.TrainStep(tokens, targets); err != nil {
				log.Fatal(err)
			}
		}
		if delayed {
			if err := e.FlushDelayed(); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%-28s final loss %.6f\n", name, loss)
		var flat []float32
		for _, p := range e.Model().Params() {
			flat = append(flat, p.W.Data...)
		}
		// The last step's optimizer write-back trails it and reports here.
		if err := e.Close(); err != nil {
			log.Fatal(err)
		}
		return flat
	}

	serialized := run("serialized optimizer", agoffload.Serialized, false)
	active := run("active gradient offloading", agoffload.Optimized, false)
	delayed := run("one-step delayed update", agoffload.Optimized, true)

	fmt.Printf("\nactive vs serialized: %s\n", compare(active, serialized))
	fmt.Printf("delayed vs serialized: %s\n", compare(delayed, serialized))
	fmt.Println("\nActive gradient offloading hides the optimizer behind backward")
	fmt.Println("propagation while remaining exactly synchronous; the delayed update")
	fmt.Println("buys the same overlap at the cost of a different training trajectory.")
}

func compare(a, b []float32) string {
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff == 0 {
		return fmt.Sprintf("bit-identical (%d parameters)", len(a))
	}
	return fmt.Sprintf("%d of %d parameters differ (stale trajectory)", diff, len(a))
}
