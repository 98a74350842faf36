package ratel_test

import (
	"fmt"
	"log"

	"ratel"
)

// ExampleInit fine-tunes a miniature model with the Fig. 4 API: no
// optimizer.step() — updates ride behind backward propagation.
func ExampleInit() {
	sess, err := ratel.Init(ratel.Options{
		Model:    ratel.ModelSpec{Vocab: 32, Seq: 8, Hidden: 16, Heads: 2, Layers: 2, Batch: 2, Seed: 1},
		GradMode: ratel.Optimized,
		Devices:  2,
	})
	if err != nil {
		log.Fatal(err)
	}

	tokens := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}, {2, 3, 4, 5, 6, 7, 8, 9}}
	targets := [][]int{{2, 3, 4, 5, 6, 7, 8, 9}, {3, 4, 5, 6, 7, 8, 9, 10}}
	first, _ := sess.TrainStep(tokens, targets)
	var last float64
	for i := 0; i < 20; i++ {
		last, _ = sess.TrainStep(tokens, targets)
	}
	// The optimizer's write-back trails each step; Close reports the last one.
	if err := sess.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("loss decreased:", last < first)
	// Output: loss decreased: true
}

// ExamplePredict sizes a machine analytically: what would the paper's
// evaluation server do with the 13B model?
func ExamplePredict() {
	srv := ratel.EvalServer(ratel.RTX4090, 768*ratel.GiB, 12)
	rep, err := ratel.Predict("Ratel", "13B", 32, srv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimizer hidden behind backward:", rep.OptimizerTail < rep.Makespan/10)
	// Output: optimizer hidden behind backward: true
}

// ExampleMaxTrainable answers the capacity question of Fig. 6.
func ExampleMaxTrainable() {
	srv := ratel.EvalServer(ratel.RTX4080, 256*ratel.GiB, 12)
	cfg, ok, err := ratel.MaxTrainable("Ratel", srv, 1)
	if err != nil || !ok {
		log.Fatal(err)
	}
	fmt.Printf("an RTX 4080 with 256 GiB fine-tunes the %s model\n", cfg.Name)
	// Output: an RTX 4080 with 256 GiB fine-tunes the 175B model
}

// ExamplePlanFor shows Algorithm 1's decision for a concrete workload.
func ExamplePlanFor() {
	srv := ratel.EvalServer(ratel.RTX4090, 768*ratel.GiB, 12)
	pl, err := ratel.PlanFor("13B", 32, srv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("interior optimum:", pl.Case.String() == "case3-interior")
	fmt.Println("swaps more than the inter-block floor:", pl.AG2M > 13*ratel.GiB)
	// Output:
	// interior optimum: true
	// swaps more than the inter-block floor: true
}
