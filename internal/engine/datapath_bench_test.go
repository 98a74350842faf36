package engine

import (
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/tensor"
)

// BenchmarkCacheRoundTrip measures the full activation swap cycle for one
// block at a realistic blob size (~576 KiB of fp16): encode into a ring
// slot, store on the striped array, read back into the adjacent slot, and
// revive the cache in a block scope. The steady-state path does all four
// stages without allocating; the pre-arena path allocated the blob, the fetch
// buffer, and a fresh BlockCache every cycle.
func BenchmarkCacheRoundTrip(b *testing.B) {
	g := geometry{batch: 2, seq: 64, hidden: 128, heads: 4}
	src := newCache(g, nil)
	for i, tt := range cacheTensors(src) {
		for j := range tt.Data {
			tt.Data[j] = tensor.RoundFP16(float32((i+j)%17) * 0.125)
		}
	}
	input := tensor.New(g.batch*g.seq, g.hidden)

	a, err := nvme.Open(nvme.Config{Devices: 4, StripeSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()

	var ar blobArena
	blobs := [2][]byte{make([]byte, g.blobBytes()), make([]byte, g.blobBytes())}
	var scope tensor.Arena
	var revived nn.BlockCache
	g.shapeCache(&revived, &scope) // the heap serves the first scope; Reset sizes the arena by it
	scope.Reset()
	b.SetBytes(int64(g.blobBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob := blobs[i%2]
		if err := ar.encode(blob, src); err != nil {
			b.Fatal(err)
		}
		if err := a.Put("act/bench", blob); err != nil {
			b.Fatal(err)
		}
		fetch := blobs[(i+1)%2]
		if err := a.ReadInto("act/bench", fetch); err != nil {
			b.Fatal(err)
		}
		g.shapeCache(&revived, &scope)
		if err := ar.decode(&revived, fetch, input); err != nil {
			b.Fatal(err)
		}
		scope.Release()
	}
}

// BenchmarkTrainStep_Swap is the end-to-end steady state: one optimizer
// step with active gradient offloading and mixed activation swapping
// (SSD / host / SSD), the configuration the allocation budget is pinned
// against.
func BenchmarkTrainStep_Swap(b *testing.B) {
	cfg := Config{
		Model:    nn.Config{Vocab: 64, Seq: 16, Hidden: 32, Heads: 4, Layers: 3, Batch: 2, Seed: 7},
		Devices:  4,
		GradMode: agoffload.Optimized,
		Swap:     map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD},
	}
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	tokens, targets := data(cfg.Model, 1)
	for i := 0; i < 3; i++ {
		if _, err := e.TrainStep(tokens, targets); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.TrainStep(tokens, targets); err != nil {
			b.Fatal(err)
		}
	}
}
