package engine

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
)

// inlineOracle is the reference every bit-identity matrix compares the
// streaming state pipeline against: a Serialized optimizer stage whose
// group updates run one at a time as synchronous UpdateGroup calls on the
// step goroutine, over the FCFS single-lane array.
func inlineOracle(cfg Config) Config {
	cfg.GradMode = agoffload.Serialized
	cfg.oracleInlineOpt = true
	cfg.oracleFCFS = true
	return cfg
}

func sameTrajectory(t *testing.T, what string, refLoss, loss []float64, refSnap, snap []float32) {
	t.Helper()
	for i := range refLoss {
		if refLoss[i] != loss[i] {
			t.Fatalf("%s: loss[%d] = %v, oracle %v", what, i, loss[i], refLoss[i])
		}
	}
	for i := range refSnap {
		if refSnap[i] != snap[i] {
			t.Fatalf("%s: parameter %d differs from the oracle", what, i)
		}
	}
}

// TestReadinessBitIdenticalMatrix is the state pipeline's exactness claim:
// for every gradient-offloading schedule and a mixed swap tier, training
// with state read ahead at gradient arrival and written behind is
// bit-identical to the Serialized inline-sync oracle — same losses, same
// parameters, only the timing of the state I/O differs.
func TestReadinessBitIdenticalMatrix(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"serialized", Config{GradMode: agoffload.Serialized}},
		{"naive", Config{GradMode: agoffload.Naive}},
		{"optimized", Config{GradMode: agoffload.Optimized}},
		{"optimized/mixed-swap", Config{GradMode: agoffload.Optimized,
			Swap: map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle := newEngine(t, inlineOracle(tc.cfg))
			refLoss := trainK(t, oracle, 4)
			if oracle.states != nil {
				t.Fatal("inline-sync oracle built a state pipeline")
			}

			piped := newEngine(t, tc.cfg)
			loss := trainK(t, piped, 4)
			sameTrajectory(t, tc.name, refLoss, loss, paramsSnapshot(oracle.Model()), paramsSnapshot(piped.Model()))
			if m := piped.LastStepMetrics(); m.PrefetchedReads != len(piped.groups) {
				t.Errorf("pipeline read ahead %d groups' state in the last step, want %d", m.PrefetchedReads, len(piped.groups))
			}
		})
	}
}

// TestStreamingBitIdentityMatrix extends the claim over the activation
// tiers, both step entry points and both array modes, and through a
// checkpoint: {all-SSD, mixed, recompute-only} × {TrainStep,
// TrainStepAccum} × {FCFS oracle lanes, duplex lanes}, each compared with
// the inline-sync oracle step for step and then saved, loaded into a fresh
// engine and continued.
func TestStreamingBitIdentityMatrix(t *testing.T) {
	tiers := []struct {
		name string
		swap map[int]Tier
	}{
		{"all-ssd", map[int]Tier{0: SwapSSD, 1: SwapSSD, 2: SwapSSD}},
		{"mixed", map[int]Tier{0: SwapSSD, 1: SwapHost}},
		{"recompute", nil},
	}
	const steps, resumeAt = 4, 2
	for _, tier := range tiers {
		for _, accum := range []bool{false, true} {
			step := func(e *Engine, s int) float64 {
				t.Helper()
				var loss float64
				var err error
				tokens, targets := data(e.cfg.Model, int64(s))
				if accum {
					t2, g2 := data(e.cfg.Model, int64(100+s))
					loss, err = e.TrainStepAccum([]Batch{{Tokens: tokens, Targets: targets}, {Tokens: t2, Targets: g2}})
				} else {
					loss, err = e.TrainStep(tokens, targets)
				}
				if err != nil {
					t.Fatal(err)
				}
				return loss
			}
			base := Config{GradMode: agoffload.Optimized, Swap: tier.swap}
			oracle := newEngine(t, inlineOracle(base))
			var refLoss []float64
			for s := 0; s < steps; s++ {
				refLoss = append(refLoss, step(oracle, s))
			}
			refSnap := paramsSnapshot(oracle.Model())

			for _, fcfs := range []bool{true, false} {
				name := tier.name + map[bool]string{false: "/step", true: "/accum"}[accum] +
					map[bool]string{false: "/duplex", true: "/fcfs"}[fcfs]
				t.Run(name, func(t *testing.T) {
					cfg := base
					cfg.oracleFCFS = fcfs
					e := newEngine(t, cfg)
					var loss []float64
					var ckpt bytes.Buffer
					for s := 0; s < steps; s++ {
						if s == resumeAt {
							// Every update joined its step: the checkpoint needs
							// no flush before it.
							if now, _ := e.states.Buffered(); now != 0 {
								t.Fatalf("between steps %d state buffers are in flight", now)
							}
							pipelineIdle(t, e)
							if err := e.SaveCheckpoint(&ckpt); err != nil {
								t.Fatal(err)
							}
						}
						loss = append(loss, step(e, s))
					}
					sameTrajectory(t, name, refLoss, loss, refSnap, paramsSnapshot(e.Model()))

					resumed := newEngine(t, cfg)
					if err := resumed.LoadCheckpoint(&ckpt); err != nil {
						t.Fatal(err)
					}
					loss = loss[:resumeAt]
					for s := resumeAt; s < steps; s++ {
						loss = append(loss, step(resumed, s))
					}
					sameTrajectory(t, name+" resumed", refLoss, loss, refSnap, paramsSnapshot(resumed.Model()))
				})
			}
		}
	}
}

// TestStatePipelineFaultPerStage lands an injected device fault in each
// stage of the optimizer state pipeline — the first group's read-ahead, its
// write-behind, and mid-window with later groups' state already read — and
// checks the unhappy path end to end: the step returns the device error, no
// wire buffer stays out of the pool, the engine refuses to train on the
// half-updated state until a checkpoint is restored, the restored run
// continues bit-identically to one that never faulted, and Close leaves no
// goroutine behind.
func TestStatePipelineFaultPerStage(t *testing.T) {
	// One device and recompute-only tiers: the step's only chunk operations
	// are the optimizer's, all on device 0 and — untimed and small — inline
	// on the issuing goroutine, so the countdown is exact. Serialized mode
	// submits the groups in order after backward: head first.
	base := Config{GradMode: agoffload.Serialized, Devices: 1}
	chunks := func(g nn.ParamGroup) int { return (12*g.NumParams() + 4095) / 4096 }
	cases := []struct {
		name  string
		depth int
		after func(groups []nn.ParamGroup) int // chunk ops that succeed first
	}{
		// Window 1 runs one group's read → Adam → write at a time.
		{"read-ahead", 1, func([]nn.ParamGroup) int { return 0 }},
		{"write-behind", 1, func(gs []nn.ParamGroup) int { return chunks(gs[len(gs)-1]) }},
		// Window 3: the head's whole round trip and the next group's read
		// succeed; the fault lands while up to three groups are in flight.
		{"mid-window", 3, func(gs []nn.ParamGroup) int {
			return 2*chunks(gs[len(gs)-1]) + chunks(gs[len(gs)-2]) + 1
		}},
	}
	const warm = 2
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := base
			cfg.Model = miniConfig()
			cfg.PipelineDepth = tc.depth
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			trainK(t, e, warm)
			var ckpt bytes.Buffer
			if err := e.SaveCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			saved := ckpt.Bytes()

			boom := errors.New("media failure")
			tokens, targets := data(cfg.Model, warm)
			e.Array().InjectFaultAfter(0, tc.after(e.groups), boom)
			if _, err := e.TrainStep(tokens, targets); !errors.Is(err, boom) {
				t.Fatalf("TrainStep with a %s fault = %v, want %v", tc.name, err, boom)
			}
			if now, peak := e.states.Buffered(); now != 0 || peak > tc.depth {
				t.Fatalf("after the failed step %d wire buffers are still out (peak %d, window %d)", now, peak, tc.depth)
			}
			e.Array().InjectFault(0, nil)
			if _, err := e.TrainStep(tokens, targets); err == nil || !errors.Is(err, boom) {
				t.Fatalf("TrainStep on half-updated optimizer state = %v, want a refusal naming the fault", err)
			}

			// Restoring a checkpoint makes the state whole again; from there
			// the run matches one that never faulted.
			if err := e.LoadCheckpoint(bytes.NewReader(saved)); err != nil {
				t.Fatal(err)
			}
			clean := newEngine(t, cfg)
			if err := clean.LoadCheckpoint(bytes.NewReader(saved)); err != nil {
				t.Fatal(err)
			}
			var loss, refLoss []float64
			for s := warm; s < warm+2; s++ {
				tokens, targets := data(cfg.Model, int64(s))
				l, err := e.TrainStep(tokens, targets)
				if err != nil {
					t.Fatalf("TrainStep after restore: %v", err)
				}
				r, err := clean.TrainStep(tokens, targets)
				if err != nil {
					t.Fatal(err)
				}
				loss, refLoss = append(loss, l), append(refLoss, r)
			}
			sameTrajectory(t, tc.name, refLoss, loss, paramsSnapshot(clean.Model()), paramsSnapshot(e.Model()))

			if err := clean.Close(); err != nil {
				t.Fatal(err)
			}
			// Close straight after a step, nothing flushed first: no update
			// is abandoned mid-flight and no buffer stays out.
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if now, _ := e.states.Buffered(); now != 0 {
				t.Fatalf("%d wire buffers still out after Close", now)
			}
			for i := 0; runtime.NumGoroutine() > baseline; i++ {
				if i > 1000 {
					t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestStatePipelineWindowBound: whatever the gradient schedule, at most
// window (= pipeline depth) groups' optimizer state is buffered at once,
// and none after any step.
func TestStatePipelineWindowBound(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		for _, mode := range []agoffload.Mode{agoffload.Serialized, agoffload.Optimized} {
			e := newEngine(t, Config{GradMode: mode, PipelineDepth: depth,
				Swap: map[int]Tier{0: SwapSSD, 2: SwapSSD}})
			for s := 0; s < 3; s++ {
				tokens, targets := data(e.cfg.Model, int64(s))
				if _, err := e.TrainStep(tokens, targets); err != nil {
					t.Fatal(err)
				}
				now, peak := e.states.Buffered()
				if now != 0 || peak < 1 || peak > depth {
					t.Fatalf("%v depth %d step %d: %d buffers held after the step, peak %d", mode, depth, s, now, peak)
				}
			}
		}
	}
}

// TestStatePipelineAddsNoAllocs: a steady-state step through the state
// pipeline allocates no more than the same step under the inline-sync
// oracle — the pipeline has no per-step channel, goroutine or closure.
// Exact and machine-independent; make test-procs reruns it at GOMAXPROCS
// 1, 2 and 4.
func TestStatePipelineAddsNoAllocs(t *testing.T) {
	allocs := func(cfg Config, accum bool) float64 {
		e := newEngine(t, cfg)
		tokens, targets := data(e.cfg.Model, 1)
		step := func() {
			var err error
			if accum {
				_, err = e.TrainStepAccum([]Batch{{Tokens: tokens, Targets: targets}, {Tokens: tokens, Targets: targets}})
			} else {
				_, err = e.TrainStep(tokens, targets)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			step()
		}
		return testing.AllocsPerRun(5, step)
	}
	for _, accum := range []bool{false, true} {
		base := Config{GradMode: agoffload.Optimized}
		oracle := base
		oracle.oracleInlineOpt = true
		piped, inline := allocs(base, accum), allocs(oracle, accum)
		t.Logf("accum=%v GOMAXPROCS=%d: pipeline %.0f allocs/step, inline oracle %.0f", accum, runtime.GOMAXPROCS(0), piped, inline)
		if piped > inline {
			t.Fatalf("accum=%v: the state pipeline allocates %.0f/step, the inline oracle %.0f", accum, piped, inline)
		}
	}
}

// TestOptSchedSteadyStateAllocs extends the zero-allocation pin to the
// optimizer schedule: after warm-up a step whose updates stream through the
// state pipeline ("readiness": state read ahead at gradient arrival) over a
// mixed swap layout stays under the budget — the pipeline adds no per-step
// channel, goroutine or closure. make test-procs reruns it at GOMAXPROCS 1,
// 2 and 4.
func TestOptSchedSteadyStateAllocs(t *testing.T) {
	t.Run("readiness", func(t *testing.T) {
		e := newEngine(t, Config{GradMode: agoffload.Optimized,
			Swap: map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD}})
		tokens, targets := data(e.cfg.Model, 1)
		for i := 0; i < 3; i++ {
			if _, err := e.TrainStep(tokens, targets); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := e.TrainStep(tokens, targets); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("steady-state allocs/step = %.0f (budget %d)", allocs, steadyStateAllocBudget)
		if allocs > steadyStateAllocBudget {
			t.Fatalf("TrainStep allocates %.0f/step, budget %d", allocs, steadyStateAllocBudget)
		}
	})
}
