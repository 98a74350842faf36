package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/opt"
	"ratel/internal/tensor"
	"ratel/internal/tensor/simd"
)

func sameTrajectory(t *testing.T, what string, refLoss, loss []float64, refSnap, snap []float32) {
	t.Helper()
	for i := range refLoss {
		if refLoss[i] != loss[i] {
			t.Fatalf("%s: loss[%d] = %v, reference %v", what, i, loss[i], refLoss[i])
		}
	}
	for i := range refSnap {
		if refSnap[i] != snap[i] {
			t.Fatalf("%s: parameter %d differs from the reference", what, i)
		}
	}
}

// TestReadinessBitIdenticalMatrix is the state pipeline's exactness claim:
// for every gradient-offloading schedule and a mixed swap tier, training
// with state read ahead at gradient arrival and written behind is
// bit-identical to the plain reference — same losses, same parameters, same
// checkpoint bytes; only the timing of the state I/O differs.
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
			piped := newEngine(t, tc.cfg)
			ref := newPlainRef(t, piped.cfg)
			loss := trainK(t, piped, 4)
			sameTrajectory(t, tc.name, ref.train(0, 4), loss, paramsSnapshot(ref.model), paramsSnapshot(piped.Model()))
			if m := piped.LastStepMetrics(); m.PrefetchedReads != len(piped.groups) {
				t.Errorf("pipeline read ahead %d groups' state in the last step, want %d", m.PrefetchedReads, len(piped.groups))
			}
			sameCheckpoint(t, tc.name, piped, ref)
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
// compared with the plain reference step for step, its checkpoint with the
// reference's bytes at the same step, and that checkpoint loaded into a
// fresh engine and continued.
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
			base := Config{Model: miniConfig(), GradMode: agoffload.Optimized, Swap: tier.swap}
			ref := newPlainRef(t, base)
			var refLoss []float64
			var refCkpt []byte
			for s := 0; s < steps; s++ {
				if s == resumeAt {
					refCkpt = ref.checkpoint()
				}
				refLoss = append(refLoss, ref.step(batchesAt(base.Model, s, accum)...))
			}
			refSnap := paramsSnapshot(ref.model)

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
							if !bytes.Equal(ckpt.Bytes(), refCkpt) {
								t.Fatal("checkpoint differs from the reference's")
							}
						}
						loss = append(loss, stepOn(t, e, batchesAt(cfg.Model, s, accum)))
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
						loss = append(loss, stepOn(t, resumed, batchesAt(cfg.Model, s, accum)))
					}
					sameTrajectory(t, name+" resumed", refLoss, loss, refSnap, paramsSnapshot(resumed.Model()))
				})
			}
		}
	}
}

// piecedConfig is a model whose optimizer state is cut into pieces: its
// blocks' groups are 12,704 params — one full 8192-param piece and a short
// one, with tensors straddling the cut — beside two one-piece groups.
func piecedConfig() nn.Config {
	return nn.Config{Vocab: 13, Seq: 6, Hidden: 32, Heads: 2, Layers: 2, Batch: 2, Seed: 77}
}

// residentConfig is a model whose state window has buffers beyond its
// stream: its blocks' groups are 28,272 params, four pieces of 8192 at depth
// 2, so ⌊2 × 28,272 ÷ 8192⌋ = 6 buffers hold a stream of 4 and two resident
// pieces — the embedding's one and block 0's first.
func residentConfig() nn.Config {
	return nn.Config{Vocab: 16, Seq: 8, Hidden: 48, Heads: 2, Layers: 2, Batch: 2, Seed: 78}
}

// TestStreamingBitIdentityPieces is TestStreamingBitIdentityMatrix's row for
// a model whose largest group is not a multiple of the piece: over
// {TrainStep, TrainStepAccum} × {duplex, throttled duplex} the pipeline
// trains step for step like the plain reference, whose UpdateGroup walks the
// same pieces one at a time; a checkpoint it saves is the reference's bytes
// at the same step, and loaded into a fresh engine it continues the same.
func TestStreamingBitIdentityPieces(t *testing.T) {
	const steps, resumeAt = 3, 1
	for _, accum := range []bool{false, true} {
		base := Config{Model: piecedConfig(), GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapSSD}}
		ref := newPlainRef(t, base)
		var refLoss []float64
		var refCkpt []byte
		for s := 0; s < steps; s++ {
			if s == resumeAt {
				refCkpt = ref.checkpoint()
			}
			refLoss = append(refLoss, ref.step(batchesAt(base.Model, s, accum)...))
		}
		refSnap := paramsSnapshot(ref.model)
		for _, lanes := range []string{"duplex", "throttled"} {
			name := map[bool]string{false: "step", true: "accum"}[accum] + "/" + lanes
			t.Run(name, func(t *testing.T) {
				cfg := base
				if lanes == "throttled" {
					cfg.SSD = throttledSSD()
				}
				e := newEngine(t, cfg)
				block := e.groups[1]
				if err := e.Array().ReadInto("states/"+block.Name+"/state/1", make([]byte, e.optimizer.StoredBytes(block.Name)[1])); err != nil {
					t.Fatalf("%s (%d params) is not cut into a full piece and a short one: %v", block.Name, block.NumParams(), err)
				}
				var loss []float64
				var ckpt bytes.Buffer
				for s := 0; s < steps; s++ {
					if s == resumeAt {
						if err := e.SaveCheckpoint(&ckpt); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(ckpt.Bytes(), refCkpt) {
							t.Fatal("checkpoint differs from the reference's")
						}
					}
					loss = append(loss, stepOn(t, e, batchesAt(cfg.Model, s, accum)))
				}
				sameTrajectory(t, name, refLoss, loss, refSnap, paramsSnapshot(e.Model()))

				resumed := newEngine(t, cfg)
				if err := resumed.LoadCheckpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
				loss = loss[:resumeAt]
				for s := resumeAt; s < steps; s++ {
					loss = append(loss, stepOn(t, resumed, batchesAt(cfg.Model, s, accum)))
				}
				sameTrajectory(t, name+" resumed", refLoss, loss, refSnap, paramsSnapshot(resumed.Model()))
			})
		}
	}
}

// TestStatePipelineFaultPerStage lands an injected device fault in each
// stage of the optimizer state pipeline — the first group's read-ahead, its
// write-behind, mid-window with later groups' state already read, and the
// read-ahead and write-behind of a group's second piece — and checks the
// unhappy path end to end: the step returns the device error, no wire buffer
// stays out of the pool, the engine refuses to train on the half-updated
// state until a checkpoint is restored, the restored run continues
// bit-identically to one that never faulted, and Close leaves no goroutine
// behind. A resident piece is never read by a step, only loaded: its row is
// a model whose every piece is resident, restored before the fault, so that
// the step's only state I/O is the resident set's reload. The cross-step
// stage — a write-back that fails after its step returned, the resident
// set's at a join included — is TestStatePipelineFaultTrailingWrite.
func TestStatePipelineFaultPerStage(t *testing.T) {
	// One device and recompute-only tiers: the step's only chunk operations
	// are the optimizer's, all on device 0 and — untimed and small — inline
	// on the issuing goroutine, so the countdown is exact. Serialized mode
	// submits the groups in order after backward: head first.
	base := Config{GradMode: agoffload.Serialized, Devices: 1}
	// The pieced model's head is 8,512 params: a full 8192-param piece and a
	// 320-param one (1 chunk). Its largest group is under two pieces, so
	// window 1 is one piece buffer and the pieces go one at a time.
	pieced := nn.Config{Vocab: 256, Seq: 6, Hidden: 32, Heads: 2, Layers: 1, Batch: 2, Seed: 77}
	fullPiece := func(e *Engine) int { return pieceChunks(e.optimizer.StoredBytes(e.groups[len(e.groups)-1].Name)[0]) }
	cases := []struct {
		name  string
		model nn.Config
		depth int
		after func(e *Engine) int // chunk ops that succeed first
		// ops, when set, is the state reads and writes that complete in the
		// faulted step: where the countdown landed, counted.
		ops [2]int64
		// reload restores the engine from its checkpoint before the fault is
		// armed, which drops the resident set.
		reload bool
	}{
		// Window 1 runs one group's read → Adam → write at a time.
		{"read-ahead", miniConfig(), 1, func(*Engine) int { return 0 }, [2]int64{}, false},
		{"write-behind", miniConfig(), 1, func(e *Engine) int { return stateChunks(e, e.groups[len(e.groups)-1]) }, [2]int64{}, false},
		// Window 3: the head's whole round trip and the next group's read
		// succeed; the fault lands while up to three groups are in flight.
		{"mid-window", miniConfig(), 3, func(e *Engine) int {
			gs := e.groups
			return 2*stateChunks(e, gs[len(gs)-1]) + stateChunks(e, gs[len(gs)-2]) + 1
		}, [2]int64{}, false},
		// The head's first piece makes its round trip; then its second
		// piece's read fails, or that read succeeds and its write fails.
		{"read-ahead/second-piece", pieced, 1, func(e *Engine) int { return 2 * fullPiece(e) }, [2]int64{1, 1}, false},
		{"write-behind/second-piece", pieced, 1, func(e *Engine) int { return 2*fullPiece(e) + 1 }, [2]int64{2, 1}, false},
		// Window 5 of the resident model holds every piece resident.
		{"resident/first-load", residentConfig(), allResidentDepth, func(*Engine) int { return 0 }, [2]int64{}, true},
	}
	const warm = 2
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tensor.Parallelism() // starts the kernel pool, whose workers outlive the test
			baseline := runtime.NumGoroutine()
			cfg := base
			cfg.Model = tc.model
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
			if tc.reload {
				allResident(t, e)
				if err := e.LoadCheckpoint(bytes.NewReader(saved)); err != nil {
					t.Fatal(err)
				}
			}

			boom := errors.New("media failure")
			tokens, targets := data(cfg.Model, warm)
			before := e.Array().Stats()
			e.Array().InjectFaultAfter(0, tc.after(e), boom)
			if _, err := e.TrainStep(tokens, targets); !errors.Is(err, boom) {
				t.Fatalf("TrainStep with a %s fault = %v, want %v", tc.name, err, boom)
			}
			e.Stats() // joins the write-back of the pieces that got that far
			if after := e.Array().Stats(); tc.ops != [2]int64{} && [2]int64{after.ReadOps - before.ReadOps, after.WriteOps - before.WriteOps} != tc.ops {
				t.Fatalf("the faulted step completed %d state reads and %d writes, want %v", after.ReadOps-before.ReadOps, after.WriteOps-before.WriteOps, tc.ops)
			}
			stream, _, _ := e.states.Window()
			if now, peak := e.states.Buffered(); now != 0 || peak > stream {
				t.Fatalf("after the failed step %d wire buffers are still out (peak %d, stream %d)", now, peak, stream)
			}
			pipelineIdle(t, e)
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

// allResidentDepth is the window depth at which residentConfig's every
// state piece is resident: ⌊5 × 28,272 ÷ 8835⌋ = 16 buffers, a stream of 6
// and ten pieces.
const allResidentDepth = 5

// allResident fails the test unless every one of e's state pieces is
// resident, so that a step's only state I/O is the resident set's load.
func allResident(t *testing.T, e *Engine) {
	t.Helper()
	pieces := 0
	for _, g := range e.groups {
		pieces += len(e.optimizer.StoredBytes(g.Name))
	}
	if _, resident, _ := e.states.Window(); resident != pieces {
		t.Fatalf("%d of %d state pieces resident, want all", resident, pieces)
	}
}

// stateChunks is how many 4 KiB chunk operations one read, or one write, of
// g's state pieces is, in the form each is stored in now.
func stateChunks(e *Engine, g nn.ParamGroup) int {
	n := 0
	for _, size := range e.optimizer.StoredBytes(g.Name) {
		n += pieceChunks(size)
	}
	return n
}

// layoutSteps is TestComputeShapeStateLayouts' warm-up and steady steps;
// race_test.go shortens them.
var layoutSteps = [2]int{20, 200}

// pieceChunks is how many 4 KiB chunks an object of size bytes is striped in.
func pieceChunks(size int) int { return (size + 4095) / 4096 }

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
// that never faulted. The resident rows fail the write-back no step makes:
// the resident set's, which every join but a step's issues — on a model
// whose every piece is resident, the device fails from the step's end on.
func TestStatePipelineFaultTrailingWrite(t *testing.T) {
	boom := errors.New("media failure")
	for _, resident := range []bool{false, true} {
		for _, join := range []string{"next-step", "save-checkpoint", "stats-then-step", "close"} {
			if resident && join == "next-step" {
				continue // a step never writes a resident piece
			}
			t.Run(map[bool]string{false: "", true: "resident/"}[resident]+join, func(t *testing.T) {
				trailingWriteFault(t, resident, join, boom)
			})
		}
	}
}

// trailingWriteFault is one cell of TestStatePipelineFaultTrailingWrite.
func trailingWriteFault(t *testing.T, resident bool, join string, boom error) {
	const warm = 2
	tensor.Parallelism() // starts the kernel pool, whose workers outlive the test
	baseline := runtime.NumGoroutine()
	// One device, recompute-only: a step's chunk operations are its
	// groups' state reads and writes and nothing else.
	cfg := Config{Model: miniConfig(), GradMode: agoffload.Optimized, Devices: 1, SSD: throttledSSD()}
	if resident {
		cfg.Model, cfg.PipelineDepth = residentConfig(), allResidentDepth
	}
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

	tokens, targets := data(cfg.Model, warm)
	if resident {
		allResident(t, e)
		if _, err := e.TrainStep(tokens, targets); err != nil {
			t.Fatal(err)
		}
		if e.states.ResidentBytes() == 0 {
			t.Fatal("nothing resident after the step: there is no write-back to fail")
		}
		e.Array().InjectFault(0, boom)
	} else {
		// The step reads its pieces at their sizes now and writes them at the
		// sizes it seals them in, which a twin's same step shows.
		twin, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trainK(t, twin, warm)
		if _, err := twin.TrainStep(tokens, targets); err != nil {
			t.Fatal(err)
		}
		twin.Stats()
		ops := 0
		for _, g := range e.groups {
			ops += stateChunks(e, g) + stateChunks(twin, g)
		}
		if err := twin.Close(); err != nil {
			t.Fatal(err)
		}
		e.Array().InjectFaultAfter(0, ops-1, boom)
		if _, err := e.TrainStep(tokens, targets); err != nil {
			t.Fatalf("TrainStep whose write-back fails later = %v, want a clean step", err)
		}
		if now, _ := e.states.Buffered(); now == 0 {
			t.Fatal("no write-back in flight when the step returned: the fault did not trail it")
		}
	}
	switch join {
	case "next-step":
		// Let the failed write finish without waiting on its ticket — a write
		// started behind it on the one device's write lane returns only once
		// the lane has served it — then clear the fault: only the ticket's
		// outcome can produce the error now.
		if err := e.Array().Put("behind", make([]byte, 1)); !errors.Is(err, boom) {
			t.Fatalf("a write behind the failed one = %v, want %v", err, boom)
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
	// still be counted, and missed by the steps above.
	if now, peak := e.states.Buffered(); now != 0 || peak > e.depth {
		t.Fatalf("%d wire buffers still out after Close (peak %d, window %d)", now, peak, e.depth)
	}
	pipelineIdle(t, e)
	noGoroutineLeft(t, baseline)
}

// TestStatePipelineReadAfterWriteOrder: with write-back trailing every step
// on a throttled, checksummed array, a group's state is still never read —
// by the next step's read-ahead or by a checkpoint — before its previous
// write retired: 30 steps with a checkpoint every 5 see no ErrCorrupt, and
// every checkpoint holds exactly the state the plain reference holds at the
// same step. The window is wider than the model has groups: a narrower one,
// held through the write, would by itself keep a step's reads behind the
// previous step's writes as long as the lanes retire them in order, and the
// test would pass without the per-group token.
func TestStatePipelineReadAfterWriteOrder(t *testing.T) {
	ssd := throttledSSD()
	ssd.Checksums = true
	e := newEngine(t, Config{GradMode: agoffload.Optimized, SSD: ssd, PipelineDepth: 8})
	if len(e.groups) >= e.depth {
		t.Fatalf("%d groups do not fit the window %d", len(e.groups), e.depth)
	}
	ref := newPlainRef(t, e.cfg)
	trailed := 0
	for s := 0; s < 30; s++ {
		trainFrom(t, e, s, 1)
		ref.train(s, 1)
		if now, _ := e.states.Buffered(); now > 0 {
			trailed++
		}
		if (s+1)%5 == 0 {
			sameCheckpoint(t, fmt.Sprintf("after step %d", s), e, ref)
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

// TestStatePipelineWindowBound: whatever the gradient schedule, the
// optimizer state held at once — each step's write-back trailing into the
// next included, and the resident set — is at most depth × 12 B × the
// largest group, counted in bytes: the window's piece buffers hold no more,
// and the pieces holding a stream buffer never outnumber them. None is
// streaming after a join (Stats). The pieced model's window is cut from the
// same bytes into more, smaller buffers than there are groups in it; the
// resident model's window has buffers to spare beyond the stream, and its
// first pieces live in them.
func TestStatePipelineWindowBound(t *testing.T) {
	cases := []struct {
		model nn.Config
		depth int
	}{{miniConfig(), 1}, {miniConfig(), 2}, {miniConfig(), 3}, {piecedConfig(), 2}, {residentConfig(), 2}}
	for _, tc := range cases {
		for _, mode := range []agoffload.Mode{agoffload.Serialized, agoffload.Optimized} {
			depth := tc.depth
			reg := obs.NewRegistry()
			e := newEngine(t, Config{Model: tc.model, GradMode: mode, PipelineDepth: depth, Metrics: reg,
				Swap: map[int]Tier{0: SwapSSD, 1: SwapSSD}, SSD: throttledSSD()})
			largest := 0
			for _, g := range e.groups {
				largest = max(largest, g.NumParams())
			}
			bound := depth * opt.StateBytes(largest, opt.Full)
			stream, resident, bytes := e.states.Window()
			buffers := stream + resident
			if bytes > bound || stream < min(depth+1, buffers) {
				t.Fatalf("%v depth %d: window of %d stream and %d resident buffers, %d B, bound %d B", mode, depth, stream, resident, bytes, bound)
			}
			trailed := false
			for s := 0; s < 4; s++ {
				tokens, targets := data(e.cfg.Model, int64(s))
				if _, err := e.TrainStep(tokens, targets); err != nil {
					t.Fatal(err)
				}
				now, peak := e.states.Buffered()
				if peak < 1 || peak > stream || (peak+resident)*bytes/buffers > bound {
					t.Fatalf("%v depth %d step %d: peak %d pieces of %d B streaming beside %d resident, bound %d B", mode, depth, s, peak, bytes/buffers, resident, bound)
				}
				// The gauge is the same count as the step returned; write-back
				// only retires between then and now.
				if live := int(reg.Snapshot()["engine.opt_writeback_inflight"]); live < now || live > stream {
					t.Fatalf("%v depth %d step %d: engine.opt_writeback_inflight = %d with %d in flight after it, stream %d", mode, depth, s, live, now, stream)
				}
				if held := int(reg.Snapshot()["opt.resident_bytes"]); held != e.states.ResidentBytes() || held > resident*bytes/buffers || (held == 0) != (resident == 0) {
					t.Fatalf("%v depth %d step %d: opt.resident_bytes = %d with %d resident buffers of %d B", mode, depth, s, held, resident, bytes/buffers)
				}
				trailed = trailed || now > 0
				if s%2 == 0 {
					continue // the next step runs into this one's write-back
				}
				e.Stats()
				if now, _ := e.states.Buffered(); now != 0 {
					t.Fatalf("%v depth %d step %d: %d pieces buffered after Stats", mode, depth, s, now)
				}
			}
			if !trailed {
				t.Fatalf("%v depth %d: no step returned with write-back in flight; the bound was not tested across steps", mode, depth)
			}
			if tc.model == piecedConfig() && buffers <= depth {
				t.Fatalf("the pieced model's window is %d buffers at depth %d: its state was not cut", buffers, depth)
			}
			if (tc.model == residentConfig()) != (resident > 0) {
				t.Fatalf("%+v depth %d: %d resident buffers", tc.model, depth, resident)
			}
		}
	}
}

// stepAllocs is what a steady-state step of an engine built from cfg
// allocates: TrainStep, or under accum TrainStepAccum over two batches.
func stepAllocs(t *testing.T, cfg Config, accum bool) float64 {
	t.Helper()
	e := newEngine(t, cfg)
	tokens, targets := data(e.cfg.Model, 1)
	micro := []Batch{{Tokens: tokens, Targets: targets}}
	if accum {
		micro = append(micro, micro[0])
	}
	step := func() { stepOn(t, e, micro) }
	// Warm-up: the first step runs on the heap and sizes the step's arenas,
	// and the first steps populate the blob arena and the optimizer's store
	// objects.
	for i := 0; i < 3; i++ {
		step()
	}
	return testing.AllocsPerRun(5, step)
}

// TestStatePipelineAddsNoAllocs pins what a steady-state step through the
// state pipeline allocates, exactly, from both step entry points: the
// pipeline has no per-step channel, goroutine or closure, so the figure is
// the step's own and the same on every core count. make test-procs reruns
// it at GOMAXPROCS 1, 2 and 4.
func TestStatePipelineAddsNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		accum bool
		want  float64
	}{{false, 18}, {true, 36}} {
		got := stepAllocs(t, Config{GradMode: agoffload.Optimized}, tc.accum)
		t.Logf("accum=%v GOMAXPROCS=%d: %.0f allocs/step", tc.accum, runtime.GOMAXPROCS(0), got)
		if got != tc.want {
			t.Fatalf("accum=%v: a step allocates %.0f, want %.0f", tc.accum, got, tc.want)
		}
	}
}

// TestDelayedUpdateAllocsLikeSync: a DelayedUpdate step allocates exactly
// what a step that applies its own gradients does — the held gradients live
// in twin buffers allocated once, and the delayed update streams through the
// same state pipeline. make test-procs reruns it at GOMAXPROCS 1, 2 and 4.
func TestDelayedUpdateAllocsLikeSync(t *testing.T) {
	swap := map[int]Tier{0: SwapSSD, 1: SwapHost}
	sync := stepAllocs(t, Config{GradMode: agoffload.Optimized, Swap: swap}, false)
	delayed := stepAllocs(t, Config{GradMode: agoffload.Optimized, Swap: swap, DelayedUpdate: true}, false)
	t.Logf("GOMAXPROCS=%d: delayed %.0f allocs/step, sync %.0f", runtime.GOMAXPROCS(0), delayed, sync)
	if delayed != sync {
		t.Fatalf("a delayed step allocates %.0f, a step without the delay %.0f", delayed, sync)
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
		allocs := mixedSwapAllocs(t, nil)
		t.Logf("steady-state allocs/step = %.0f (budget %d)", allocs, steadyStateAllocBudget)
		if allocs > steadyStateAllocBudget {
			t.Fatalf("TrainStep allocates %.0f/step, budget %d", allocs, steadyStateAllocBudget)
		}
	})
}

// TestStateBytesAreStoredForms: on the opt_stream model, a step reads and
// writes exactly the state its streamed pieces are stored as — the sum of
// opt.StateBytes over the form each piece holds when read, and the form it
// is sealed in when written — and Stats' write-back adds the resident set's
// sizes, in whatever forms the pieces are. The ledger's NVMe edges count the
// same bytes as the array.
func TestStateBytesAreStoredForms(t *testing.T) {
	e := newEngine(t, Config{Model: optStreamModel(), GradMode: agoffload.Optimized})
	_, resident, _ := e.states.Window()
	sizes := func() (streamed, res int64) {
		k := 0
		for _, g := range e.groups {
			for _, size := range e.optimizer.StoredBytes(g.Name) {
				if k < resident {
					res += int64(size)
				} else {
					streamed += int64(size)
				}
				k++
			}
		}
		return streamed, res
	}
	trainK(t, e, 1) // loads the resident set
	e.Stats()
	for s := 1; s < 6; s++ {
		read, _ := sizes()
		before := e.Array().Stats()
		trainFrom(t, e, s, 1)
		e.Stats()
		after := e.Array().Stats()
		written, res := sizes()
		if got := int64(after.BytesRead - before.BytesRead); got != read {
			t.Fatalf("step %d read %d B of state, want the streamed pieces' stored %d", s, got, read)
		}
		if got := int64(after.BytesWritten - before.BytesWritten); got != written+res {
			t.Fatalf("step %d wrote %d B of state, want the streamed pieces' %d and the resident set's %d", s, got, written, res)
		}
	}
	flows, ssd := e.Flows(), e.Array().Stats()
	if r, w := flows.Edge(obs.EdgeHostNVMeRead), flows.Edge(obs.EdgeHostNVMeWrite); r != int64(ssd.BytesRead) || w != int64(ssd.BytesWritten) {
		t.Fatalf("the ledger counts %d B read and %d written, the array %d and %d", r, w, ssd.BytesRead, ssd.BytesWritten)
	}
}

// TestComputeShapeStateLayouts: at the benchmark's compute shape, over 220
// steps, the array lays a state piece out on new chunks only when the piece
// outgrows every size it has been stored in: a piece whose size moves with
// its escapes keeps its chunks, and a shrink and regrowth within them costs
// nothing. The steps after the first 20 are the steady state; the pieces'
// M tails still grow there (moments of parameters the batches leave without
// gradient decay out of their windows), so some layouts remain, and the
// test counts them rather than assuming none. Under the race detector and
// on the generic kernels (make test-nosimd) it runs 12 steps: the rule, at
// the reference kernels' speed, not the steady state.
func TestComputeShapeStateLayouts(t *testing.T) {
	warm, steps := layoutSteps[0], layoutSteps[1]
	if simd.Level() == "generic" {
		warm, steps = 2, 10
	}
	model := nn.Config{Vocab: 256, Seq: 128, Hidden: 256, Heads: 8, Layers: 4, Batch: 2, Seed: 1}
	e := newEngine(t, Config{Model: model, GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapHost, 2: SwapHost}, Devices: 4})
	most := map[string]int{} // each piece's most stripes so far, by group and index
	grown := func() (n int64) {
		for _, g := range e.groups {
			for k, size := range e.optimizer.StoredBytes(g.Name) {
				key := g.Name + "/" + strconv.Itoa(k)
				if c := pieceChunks(size); c > most[key] {
					most[key], n = c, n+1
				}
			}
		}
		return n
	}
	grown() // the sizes New stored the pieces in
	layouts, steady := e.Array().Stats().Layouts, int64(0)
	for s := 0; s < warm+steps; s++ {
		trainFrom(t, e, s%8, 1)
		e.Stats()
		want, now := grown(), e.Array().Stats().Layouts
		if now-layouts != want {
			t.Fatalf("step %d: %d layouts, want the %d pieces that outgrew every size they had", s, now-layouts, want)
		}
		if s >= warm {
			steady += want
		}
		layouts = now
	}
	t.Logf("%d layouts in the %d steady steps", steady, steps)
}
