package engine

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/obs"
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

// throttledSSD is a device slow enough that a mini model's state write-back
// (~35 KB a step) is still in flight, for milliseconds, when its step returns.
func throttledSSD() *nvme.Config {
	return &nvme.Config{ReadBW: 8 << 20, WriteBW: 2 << 20}
}

// TestStreamingBitIdentityMatrix extends the claim over the activation
// tiers, both step entry points and the array modes, and through a
// checkpoint: {all-SSD, mixed, recompute-only} × {TrainStep,
// TrainStepAccum} × {FCFS oracle lanes, duplex lanes, throttled duplex lanes
// — where every step starts behind the previous one's write-back}, each
// compared with the inline-sync oracle step for step and then saved, loaded
// into a fresh engine and continued.
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

			for _, lanes := range []string{"fcfs", "duplex", "throttled"} {
				name := tier.name + map[bool]string{false: "/step", true: "/accum"}[accum] + "/" + lanes
				t.Run(name, func(t *testing.T) {
					cfg := base
					cfg.oracleFCFS = lanes == "fcfs"
					if lanes == "throttled" {
						cfg.SSD = throttledSSD()
					}
					e := newEngine(t, cfg)
					var loss []float64
					var ckpt bytes.Buffer
					for s := 0; s < steps; s++ {
						if s == resumeAt {
							// The checkpoint has no flush precondition: it joins
							// the write-back trailing the last step itself.
							pipelineIdle(t, e)
							if err := e.SaveCheckpoint(&ckpt); err != nil {
								t.Fatal(err)
							}
							if now, _ := e.states.Buffered(); now != 0 {
								t.Fatalf("%d state buffers in flight after SaveCheckpoint", now)
							}
						}
						loss = append(loss, step(e, s))
						if _, peak := e.states.Buffered(); peak > e.depth {
							t.Fatalf("step %d: %d state buffers held at once, window %d", s, peak, e.depth)
						}
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
// goroutine behind. The cross-step stage — a write-back that fails after
// its step returned — is TestStatePipelineFaultTrailingWrite.
func TestStatePipelineFaultPerStage(t *testing.T) {
	// One device and recompute-only tiers: the step's only chunk operations
	// are the optimizer's, all on device 0 and — untimed and small — inline
	// on the issuing goroutine, so the countdown is exact. Serialized mode
	// submits the groups in order after backward: head first.
	base := Config{GradMode: agoffload.Serialized, Devices: 1}
	cases := []struct {
		name  string
		depth int
		after func(groups []nn.ParamGroup) int // chunk ops that succeed first
	}{
		// Window 1 runs one group's read → Adam → write at a time.
		{"read-ahead", 1, func([]nn.ParamGroup) int { return 0 }},
		{"write-behind", 1, func(gs []nn.ParamGroup) int { return stateChunks(gs[len(gs)-1]) }},
		// Window 3: the head's whole round trip and the next group's read
		// succeed; the fault lands while up to three groups are in flight.
		{"mid-window", 3, func(gs []nn.ParamGroup) int {
			return 2*stateChunks(gs[len(gs)-1]) + stateChunks(gs[len(gs)-2]) + 1
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
			e.Stats() // joins the write-back of the groups that got that far
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
			// Close straight after a step, nothing flushed first: it joins the
			// trailing write-back itself, so no buffer stays out.
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if now, _ := e.states.Buffered(); now != 0 {
				t.Fatalf("%d wire buffers still out after Close", now)
			}
			noGoroutineLeft(t, baseline)
		})
	}
}

// stateChunks is how many 4 KiB chunk operations one read, or one write, of
// g's 12 B/param state object is.
func stateChunks(g nn.ParamGroup) int { return (12*g.NumParams() + 4095) / 4096 }

// noGoroutineLeft waits for the goroutine count to fall back to baseline,
// read before the engine was built. At most, not exactly: a goroutine of an
// earlier test may still have been exiting when baseline was read.
func noGoroutineLeft(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i > 1000 {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatePipelineFaultTrailingWrite is the cross-step cell of the fault
// matrix: on a throttled device the last chunk of a step's write-back fails
// after TrainStep has returned cleanly, and the failure must be returned by
// whichever call joins it first — the next TrainStep (at the group's
// read-after-write join), SaveCheckpoint, Close, or, after Stats (which joins
// but has no error result), the TrainStep that follows. In every cell the
// error latches (later steps and checkpoints refused), a failed
// SaveCheckpoint wrote nothing, no wire buffer or goroutine leaks, and
// LoadCheckpoint into the same engine continues bit-identically to a run
// that never faulted.
func TestStatePipelineFaultTrailingWrite(t *testing.T) {
	const warm = 2
	boom := errors.New("media failure")
	for _, join := range []string{"next-step", "save-checkpoint", "stats-then-step", "close"} {
		t.Run(join, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			// One device, recompute-only: a step's chunk operations are its
			// groups' state reads and writes and nothing else.
			cfg := Config{Model: miniConfig(), GradMode: agoffload.Optimized, Devices: 1, SSD: throttledSSD()}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			trainK(t, e, warm)
			var ckpt bytes.Buffer
			if err := e.SaveCheckpoint(&ckpt); err != nil { // joins: the countdown starts at a quiet array
				t.Fatal(err)
			}
			saved := ckpt.Bytes()

			ops := 0
			for _, g := range e.groups {
				ops += 2 * stateChunks(g)
			}
			e.Array().InjectFaultAfter(0, ops-1, boom)
			tokens, targets := data(cfg.Model, warm)
			if _, err := e.TrainStep(tokens, targets); err != nil {
				t.Fatalf("TrainStep whose write-back fails later = %v, want a clean step", err)
			}
			if now, _ := e.states.Buffered(); now == 0 {
				t.Fatal("no write-back in flight when the step returned: the fault did not trail it")
			}
			switch join {
			case "next-step":
				// Let the failed write retire without joining it, then clear the
				// fault: only the stored outcome can produce the error now.
				for i := 0; ; i++ {
					if now, _ := e.states.Buffered(); now == 0 {
						break
					}
					if i > 5000 {
						t.Fatal("write-back never retired")
					}
					time.Sleep(time.Millisecond)
				}
				e.Array().InjectFault(0, nil)
				if _, err := e.TrainStep(tokens, targets); !errors.Is(err, boom) {
					t.Fatalf("next TrainStep = %v, want %v", err, boom)
				}
			case "save-checkpoint":
				var torn bytes.Buffer
				if err := e.SaveCheckpoint(&torn); !errors.Is(err, boom) {
					t.Fatalf("SaveCheckpoint = %v, want %v", err, boom)
				}
				if torn.Len() != 0 || e.LoadCheckpoint(&torn) == nil {
					t.Fatalf("the failed SaveCheckpoint wrote %d bytes (or LoadCheckpoint accepted them)", torn.Len())
				}
				e.Array().InjectFault(0, nil)
			case "stats-then-step":
				e.Stats()
				e.Array().InjectFault(0, nil)
				if _, err := e.TrainStep(tokens, targets); !errors.Is(err, boom) {
					t.Fatalf("TrainStep after Stats = %v, want %v", err, boom)
				}
			case "close":
				if err := e.Close(); !errors.Is(err, boom) {
					t.Fatalf("Close = %v, want %v", err, boom)
				}
			}
			if join != "close" {
				// Latched: reported again by every step and checkpoint until a
				// restore, which continues like a run that never faulted.
				if _, err := e.TrainStep(tokens, targets); !errors.Is(err, boom) {
					t.Fatalf("TrainStep on the latched failure = %v, want a refusal naming it", err)
				}
				if err := e.SaveCheckpoint(new(bytes.Buffer)); !errors.Is(err, boom) {
					t.Fatalf("SaveCheckpoint on the latched failure = %v, want a refusal naming it", err)
				}
				if err := e.LoadCheckpoint(bytes.NewReader(saved)); err != nil {
					t.Fatal(err)
				}
				clean := newEngine(t, cfg)
				if err := clean.LoadCheckpoint(bytes.NewReader(saved)); err != nil {
					t.Fatal(err)
				}
				loss, refLoss := trainFrom(t, e, warm, 2), trainFrom(t, clean, warm, 2)
				sameTrajectory(t, join, refLoss, loss, paramsSnapshot(clean.Model()), paramsSnapshot(e.Model()))
				if err := errors.Join(clean.Close(), e.Close()); err != nil {
					t.Fatal(err)
				}
			}
			// Every cell ends closed. A wire buffer the failure had leaked would
			// still be counted, and its window token missed by the steps above.
			if now, peak := e.states.Buffered(); now != 0 || peak > e.depth {
				t.Fatalf("%d wire buffers still out after Close (peak %d, window %d)", now, peak, e.depth)
			}
			noGoroutineLeft(t, baseline)
		})
	}
}

// TestStatePipelineReadAfterWriteOrder: with write-back trailing every step
// on a throttled, checksummed array, a group's state is still never read —
// by the next step's read-ahead or by a checkpoint — before its previous
// write retired: 30 steps with a checkpoint every 5 see no ErrCorrupt, and
// every checkpoint holds exactly the state the inline-sync oracle stored at
// the same step. The window is wider than the model has groups: a narrower
// one, held through the write, would by itself keep a step's reads behind
// the previous step's writes as long as the lanes retire them in order, and
// the test would pass without the per-group token.
func TestStatePipelineReadAfterWriteOrder(t *testing.T) {
	ssd := throttledSSD()
	ssd.Checksums = true
	e := newEngine(t, Config{GradMode: agoffload.Optimized, SSD: ssd, PipelineDepth: 8})
	if len(e.groups) >= e.depth {
		t.Fatalf("%d groups do not fit the window %d", len(e.groups), e.depth)
	}
	oracle := newEngine(t, inlineOracle(Config{}))
	trailed := 0
	for s := 0; s < 30; s++ {
		trainFrom(t, e, s, 1)
		trainFrom(t, oracle, s, 1)
		if now, _ := e.states.Buffered(); now > 0 {
			trailed++
		}
		if (s+1)%5 != 0 {
			continue
		}
		var got, want bytes.Buffer
		if err := e.SaveCheckpoint(&got); err != nil {
			t.Fatalf("checkpoint after step %d: %v", s, err)
		}
		if err := oracle.SaveCheckpoint(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("checkpoint after step %d differs from the oracle's", s)
		}
	}
	if trailed == 0 {
		t.Fatal("no step returned with write-back in flight: the order was never at risk")
	}
}

// TestStatePipelineRestoreOverWriteBack is the write-after-write order: a
// LoadCheckpoint issued while the last step's write-back is still in flight
// joins it first, so the restored state — not the trailing write — is what
// stays on the array, and the run continues exactly like a fresh engine
// loaded from the same checkpoint.
func TestStatePipelineRestoreOverWriteBack(t *testing.T) {
	ssd := throttledSSD()
	ssd.Checksums = true
	cfg := Config{GradMode: agoffload.Optimized, SSD: ssd}
	e := newEngine(t, cfg)
	trainFrom(t, e, 0, 2)
	var ckpt bytes.Buffer
	if err := e.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	trainFrom(t, e, 2, 2)
	if now, _ := e.states.Buffered(); now == 0 {
		t.Fatal("no write-back in flight when the step returned: nothing can land after the restore")
	}
	if err := e.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if now, _ := e.states.Buffered(); now != 0 {
		t.Fatalf("%d groups' write-back still in flight after LoadCheckpoint", now)
	}
	fresh := newEngine(t, cfg)
	if err := fresh.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	// What is stored right after the restore is the checkpoint ...
	var stored bytes.Buffer
	if err := e.SaveCheckpoint(&stored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored.Bytes(), ckpt.Bytes()) {
		t.Fatal("the state stored right after the restore is not the checkpoint")
	}
	// ... and three steps on, both engines trained and stored the same.
	loss, refLoss := trainFrom(t, e, 2, 3), trainFrom(t, fresh, 2, 3)
	sameTrajectory(t, "restored over write-back", refLoss, loss, paramsSnapshot(fresh.Model()), paramsSnapshot(e.Model()))
	var got, want bytes.Buffer
	if err := errors.Join(e.SaveCheckpoint(&got), fresh.SaveCheckpoint(&want)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("state three steps after restore differs")
	}
}

// TestStatePipelineWindowBound: whatever the gradient schedule, at most
// window (= pipeline depth) groups' optimizer state is buffered at once —
// each step's write-back trailing into the next included — and none after a
// join (Stats).
func TestStatePipelineWindowBound(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		for _, mode := range []agoffload.Mode{agoffload.Serialized, agoffload.Optimized} {
			reg := obs.NewRegistry()
			e := newEngine(t, Config{GradMode: mode, PipelineDepth: depth, Metrics: reg,
				Swap: map[int]Tier{0: SwapSSD, 2: SwapSSD}, SSD: throttledSSD()})
			trailed := false
			for s := 0; s < 4; s++ {
				tokens, targets := data(e.cfg.Model, int64(s))
				if _, err := e.TrainStep(tokens, targets); err != nil {
					t.Fatal(err)
				}
				now, peak := e.states.Buffered()
				if peak < 1 || peak > depth {
					t.Fatalf("%v depth %d step %d: peak %d buffers held", mode, depth, s, peak)
				}
				// The gauge is the same count as the step returned; write-back
				// only retires between then and now.
				if live := int(reg.Snapshot()["engine.opt_writeback_inflight"]); live < now || live > depth {
					t.Fatalf("%v depth %d step %d: engine.opt_writeback_inflight = %d with %d in flight after it, window %d", mode, depth, s, live, now, depth)
				}
				trailed = trailed || now > 0
				if s%2 == 0 {
					continue // the next step runs into this one's write-back
				}
				e.Stats()
				if now, peak := e.states.Buffered(); now != 0 || peak > depth {
					t.Fatalf("%v depth %d step %d: %d buffers held after Stats, peak %d", mode, depth, s, now, peak)
				}
			}
			if !trailed {
				t.Fatalf("%v depth %d: no step returned with write-back in flight; the bound was not tested across steps", mode, depth)
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
