package engine

import (
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/tensor"
)

// cacheRoundTripAllocBudget pins the steady-state swap cycle: the
// persistent per-device dispatchers replaced the old per-transfer goroutine
// spawn (which cost ~24 allocs/op for goroutines + closures), so a full
// encode → striped Put → ReadInto → decode cycle must stay in single-digit
// allocations.
const cacheRoundTripAllocBudget = 8

func TestCacheRoundTripAllocs(t *testing.T) {
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
		t.Fatal(err)
	}
	defer a.Close()
	var ar blobArena
	blobs := [2][]byte{make([]byte, g.blobBytes()), make([]byte, g.blobBytes())}
	var scope tensor.Arena
	var revived nn.BlockCache
	iter := 0
	cycle := func() {
		blob := blobs[iter%2]
		if err := ar.encode(blob, src); err != nil {
			t.Fatal(err)
		}
		if err := a.Put("act/bench", blob); err != nil {
			t.Fatal(err)
		}
		fetch := blobs[(iter+1)%2]
		if err := a.ReadInto("act/bench", fetch); err != nil {
			t.Fatal(err)
		}
		g.shapeCache(&revived, &scope)
		if err := ar.decode(&revived, fetch, input); err != nil {
			t.Fatal(err)
		}
		scope.Reset()
		iter++
	}
	for i := 0; i < 4; i++ { // warm the arena, buffer pool and xfer pool
		cycle()
	}
	allocs := testing.AllocsPerRun(30, cycle)
	t.Logf("cache round trip: %.1f allocs/op (budget %d)", allocs, cacheRoundTripAllocBudget)
	if allocs > cacheRoundTripAllocBudget {
		t.Fatalf("cache round trip allocates %.1f/op, budget %d — per-transfer goroutine spawn crept back?",
			allocs, cacheRoundTripAllocBudget)
	}
}

// TestSchedBitIdentityMatrix pins the scheduler's exactness claim: on a
// mixed swap-tier layout, the duplex priority lanes — under the default
// class order and under an inverted one — must leave the training
// trajectory bit-identical to the FCFS single-lane oracle, whether the
// optimizer runs as the inline-sync oracle ("sync") or as the streaming
// state pipeline ("readiness"). The scheduler reorders I/O, never data, so
// all six cells share one trajectory.
func TestSchedBitIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("throttled-array matrix in -short mode")
	}
	base := Config{
		Model:    nn.Config{Vocab: 64, Seq: 24, Hidden: 16, Heads: 2, Layers: 4, Batch: 2, Seed: 5},
		GradMode: agoffload.Optimized,
		Swap:     map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD, 3: SwapSSD},
		Devices:  3,
		SSD: &nvme.Config{
			ReadBW:     256 << 20,
			WriteBW:    148 << 20,
			StripeSize: 1 << 12,
		},
		PipelineDepth: 2,
	}
	schedules := []struct {
		name string
		mut  func(*Config)
	}{
		{"sync", func(c *Config) { c.oracleInlineOpt = true }},
		{"readiness", func(c *Config) {}},
	}
	arrays := []struct {
		name string
		mut  func(*Config)
	}{
		{"fcfs", func(c *Config) { c.oracleFCFS = true }},
		{"sched", func(c *Config) {}},
		{"sched-inverted", func(c *Config) {
			c.oracleSchedOrder = []nvme.Class{
				nvme.ClassWriteBehind, nvme.ClassWriteback, nvme.ClassOptRead, nvme.ClassCriticalFetch,
			}
		}},
	}
	const steps = 3
	run := func(cfg Config) (losses []float64, flat []float32) {
		t.Helper()
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tokens, targets := data(cfg.Model, 21)
		for s := 0; s < steps; s++ {
			loss, err := e.TrainStep(tokens, targets)
			if err != nil {
				e.Close()
				t.Fatal(err)
			}
			losses = append(losses, loss)
		}
		flat = paramsSnapshot(e.Model())
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return losses, flat
	}
	// The first cell (sync × fcfs) is the oracle every other cell must
	// reproduce.
	var refLoss []float64
	var refFlat []float32
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			for _, arr := range arrays {
				cfg := base
				sched.mut(&cfg)
				arr.mut(&cfg)
				losses, flat := run(cfg)
				if refLoss == nil {
					refLoss, refFlat = losses, flat
					continue
				}
				sameTrajectory(t, sched.name+"/"+arr.name, refLoss, losses, refFlat, flat)
			}
		})
	}
}
