package engine

import (
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/opt"
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
	src := newBlockCache(g)
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
	ar.init(DefaultPipelineDepth + 1)
	n := g.blobBytes()
	iter := 0
	cycle := func() {
		blob := ar.slotBuf(iter, n)
		if err := ar.encode(blob, src); err != nil {
			t.Fatal(err)
		}
		if err := a.Put("act/bench", blob); err != nil {
			t.Fatal(err)
		}
		fetch := ar.slotBuf(iter+1, n)
		if err := a.ReadInto("act/bench", fetch); err != nil {
			t.Fatal(err)
		}
		c := ar.cacheFor(iter, g)
		if err := ar.decode(c, fetch, input); err != nil {
			t.Fatal(err)
		}
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

// TestSchedBitIdentityMatrix pins the scheduler's exactness claim across
// the engine's operating modes: for every optimizer schedule and a mixed
// swap-tier layout, the duplex priority lanes (under the default and an
// inverted class order, and with the adaptive depth controller) must leave
// the training trajectory bit-identical to the FCFS single-lane oracle —
// the scheduler reorders I/O, never data. "sync" is the inline-sync
// optimizer oracle and "readiness" the streaming state pipeline, and those
// two are also held to one trajectory; async differs from them by design
// and is compared within itself.
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
		{"async", func(c *Config) {
			c.OptSchedule = opt.ScheduleAsync
			c.AsyncTopK = 2
			c.MaxStaleness = 1
		}},
	}
	arrays := []struct {
		name string
		mut  func(*Config)
	}{
		{"fcfs", func(c *Config) { c.oracleFCFS = true }},
		{"sched", func(c *Config) {}},
		{"sched-inverted", func(c *Config) {
			c.SchedClasses = "write-behind,writeback,opt-read,fetch"
		}},
		{"sched-adaptive", func(c *Config) {
			c.AdaptiveDepth = true
			c.DepthWindow = 1
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
		if err := e.FlushAsync(); err != nil {
			e.Close()
			t.Fatal(err)
		}
		for _, p := range e.Model().Params() {
			flat = append(flat, p.W.Data...)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return losses, flat
	}
	// One reference per trajectory: "sync" and "readiness" share the exact
	// one (whichever runs first sets it), async has its own.
	type trajectory struct {
		loss []float64
		flat []float32
	}
	refs := map[bool]*trajectory{false: {}, true: {}}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			ref := refs[sched.name == "async"]
			for _, arr := range arrays {
				cfg := base
				sched.mut(&cfg)
				arr.mut(&cfg)
				losses, flat := run(cfg)
				if ref.loss == nil {
					ref.loss, ref.flat = losses, flat
					continue
				}
				for s := range ref.loss {
					if losses[s] != ref.loss[s] {
						t.Fatalf("%s: loss[%d] = %v differs from fcfs %v (scheduler changed values)",
							arr.name, s, losses[s], ref.loss[s])
					}
				}
				for i := range ref.flat {
					if flat[i] != ref.flat[i] {
						t.Fatalf("%s: param %d = %v differs from fcfs %v", arr.name, i, flat[i], ref.flat[i])
					}
				}
			}
		})
	}
}

// TestAdaptiveDepthConverges drives the Table III throttle shape (the
// BenchmarkTrainStepOverlap configuration, where static depth 1 stalls 4
// times per step and burns ~10% of the wall waiting on read-ahead) with the
// adaptive controller and no hand-tuned depth: within 5 decision windows
// the controller must have raised the effective window to a stall-free
// operating point — fetch waits below the obs.Attribute verdict threshold
// and a bottleneck attribution that no longer reads "stalled readahead".
func TestAdaptiveDepthConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("throttled-array training in -short mode")
	}
	tr := obs.NewTracer(obs.DefaultCapacity)
	cfg := overlapConfig(func(c *Config) {
		// The controller under test governs the activation window only. The
		// inline-sync optimizer oracle holds the rest of the step at the
		// shape the 15% verdict threshold below was calibrated on: with the
		// streaming state pipeline the drain falls from ~53 ms to ~8 ms, the
		// wall halves, and the same ~8 ms of read-ahead wait on this
		// read-bandwidth-bound backward sits at 13–15% of it — on the
		// threshold, whatever the depth.
		c.oracleInlineOpt = true
		c.AdaptiveDepth = true // PipelineDepth left 0: adaptive ceiling applies
		c.Tracer = tr
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tokens, targets := data(cfg.Model, 9)

	if got := e.EffectiveDepth(); got != 1 {
		t.Fatalf("controller starts at depth %d, want 1", got)
	}
	const convergeBudget = 5 * DefaultDepthWindow // acceptance: 5 windows
	for s := 0; s < convergeBudget; s++ {
		if _, err := e.TrainStep(tokens, targets); err != nil {
			t.Fatal(err)
		}
	}
	windows, raises, _ := e.DepthDecisions()
	if windows == 0 || raises == 0 {
		t.Fatalf("after %d steps: %d windows, %d raises — controller never reacted to depth-1 stalls",
			convergeBudget, windows, raises)
	}

	// Converged tail: fetch waits are a healthy fraction of the wall (well
	// under the 15% verdict threshold) and the span attribution agrees. The
	// raw miss count never reaches zero on this trace — the head-of-window
	// fetch is launched at the backward boundary and always misses by a
	// hair — which is exactly why the controller keys on time, not events.
	tailStart := tr.Now()
	const tailSteps = 2 * DefaultDepthWindow
	for s := 0; s < tailSteps; s++ {
		if _, err := e.TrainStep(tokens, targets); err != nil {
			t.Fatal(err)
		}
		m := e.LastStepMetrics()
		if frac := float64(m.FetchStallWait) / float64(m.Wall); frac > 0.15 {
			t.Fatalf("tail step %d: fetch waits are %.0f%% of wall at effective depth %d — not converged within 5 windows",
				s, 100*frac, m.EffectiveDepth)
		}
		if m.EffectiveDepth <= 1 {
			t.Fatalf("tail step %d: effective depth %d, controller never raised", s, m.EffectiveDepth)
		}
	}
	if att := obs.Attribute(tr.Spans(), tailStart, tr.Now()); att.Bound == obs.VerdictStalledReadhead {
		t.Fatalf("converged tail still attributed to stalled readahead: %+v", att)
	}
}
