// Quickstart: fine-tune a miniature language model with the real Ratel
// engine — the Fig. 4 user interface. Model states live on a striped NVMe
// substrate, activations are swapped or recomputed per the holistic plan,
// and the optimizer is hidden behind backward propagation.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ratel"
)

func main() {
	// Init is the paper's Ratel_init: it builds the engine, runs the
	// hardware-aware profiling stage, plans activation swapping with
	// Algorithm 1, and wraps the optimizer in active gradient offloading.
	sess, err := ratel.Init(ratel.Options{
		Model: ratel.ModelSpec{
			Vocab: 64, Seq: 16, Hidden: 32, Heads: 4, Layers: 4, Batch: 4, Seed: 7,
		},
		GradMode: ratel.Optimized,
		Devices:  4, // four (in-memory) NVMe devices
		// Plan for a compute-starved target (a small GPU with fast SSDs):
		// Algorithm 1 then prefers swapping activations to recomputing them.
		Rates: ratel.HWRates{
			THPG: ratel.TFLOPS(1e-6), BWG: ratel.GBps(10),
			BWS2M: ratel.GBps(10), BWM2S: ratel.GBps(10),
			MemAvail: 4096, // bytes of host headroom: most swaps spill to SSD
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	pl := sess.Plan()
	fmt.Printf("activation plan: %v — swap %v across %d layers, recompute %.2f GFLOP/iter\n",
		pl.Case, pl.AG2M, len(pl.Swapped), pl.FLOPr.GFLOPf())

	// The training loop matches plain PyTorch-style code: note there is no
	// optimizer.step() — updates happen as gradients arrive (§IV-C).
	rng := rand.New(rand.NewSource(7))
	tokens, targets := batch(rng)
	for step := 1; step <= 150; step++ {
		loss, err := sess.TrainStep(tokens, targets)
		if err != nil {
			log.Fatal(err)
		}
		if step%30 == 0 || step == 1 {
			fmt.Printf("step %2d  loss %.4f\n", step, loss)
		}
	}

	st := sess.Stats()
	fmt.Printf("data movement: offloaded %v of activations, SSD wrote %v / read %v\n",
		st.ActBytesOffload, st.SSD.BytesWritten, st.SSD.BytesRead)

	// Sample from the fine-tuned model: it has learned the +1 sequence.
	out, err := sess.Generate([]int{10, 11, 12, 13}, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy continuation of [10 11 12 13]: %v\n", out[4:])

	// Close reports what the last step left in flight: its optimizer
	// write-back trails the step and fails, if it fails, here.
	if err := sess.Close(); err != nil {
		log.Fatal(err)
	}
}

// batch builds a fixed synthetic copy-task batch: predict the same sequence
// shifted by one.
func batch(rng *rand.Rand) (tokens, targets [][]int) {
	const b, s, v = 4, 16, 64
	tokens = make([][]int, b)
	targets = make([][]int, b)
	for i := range tokens {
		tokens[i] = make([]int, s)
		targets[i] = make([]int, s)
		start := rng.Intn(v)
		for j := 0; j < s; j++ {
			tokens[i][j] = (start + j) % v
			targets[i][j] = (start + j + 1) % v
		}
	}
	return tokens, targets
}
