package engine

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/memctl"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/units"
)

// pipelineIdle asserts the invariants the step barrier guarantees between
// steps, successful or failed: every ring slot home (so no transfer in
// flight, in either direction) with a buffer of its own, every transfer
// error taken, no leaked host-pool reservation — staging or host tier.
func pipelineIdle(t *testing.T, e *Engine) {
	t.Helper()
	for slot, tok := range e.win.ring {
		if len(tok) != 1 {
			t.Fatalf("ring-slot %d not home after the step barrier", slot)
		}
	}
	owner := map[*byte]int{}
	for slot, s := range ringSlots(e.win) {
		if s.err != nil {
			t.Fatalf("ring-slot %d still carries %v after the step barrier", slot, s.err)
		}
		if s.blob == nil {
			continue
		}
		if other, dup := owner[&s.blob[0]]; dup || len(s.blob) != e.blobLen {
			t.Fatalf("ring-slot %d holds %d bytes (blob %d), shared with slot %d: %v", slot, len(s.blob), e.blobLen, other, dup)
		}
		owner[&s.blob[0]] = slot
	}
	for i := range e.arena.host {
		if e.arena.host[i].pinned {
			t.Fatalf("block %d still holds its host-tier reservation after the step barrier", i)
		}
	}
	if used := e.hostPool.Used(); used != 0 {
		t.Fatalf("host pool still holds %v after the step barrier", used)
	}
}

// goroutinesBack asserts the engine is back to the goroutines it was built
// with (base, counted between steps): a step, failed or not, spawns none.
func goroutinesBack(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() != base; i++ {
		if i > 1000 {
			t.Fatalf("%d goroutines after the step, %d before it", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// poisonArena dirties every buffer the activation path owns — ring slots and
// host-tier blobs — and reports how many there were. Call between steps,
// when the step goroutine holds them all: any consumer trusting a buffer's
// previous contents now reads trash.
func poisonArena(e *Engine) int {
	n := 0
	poison := func(b []byte) {
		if b != nil {
			n++
		}
		for i := range b {
			b[i] = 0xAB
		}
	}
	for _, s := range ringSlots(e.win) {
		poison(s.blob)
	}
	for i := range e.arena.host {
		poison(e.arena.host[i].blob)
	}
	return n
}

// ringSlots peeks at the ring's slots (blob nil: never used). Call between
// steps, when every slot is home.
func ringSlots(w *actWindow) []ringSlot {
	out := make([]ringSlot, len(w.ring))
	for i, tok := range w.ring {
		out[i] = <-tok
		tok <- out[i]
	}
	return out
}

// faultedStep is the fault tests' common harness: one clean step (so every
// lazily started goroutine exists), then a step with the fault armed, which
// must return the device error with the window idle and no goroutine
// spawned; after the fault clears (and the engine's buffers are poisoned, to
// prove a failed step's bytes carry into no value) training resumes.
func faultedStep(t *testing.T, e *Engine, boom error, arm func()) error {
	t.Helper()
	tokens, targets := data(e.cfg.Model, 3)
	if _, err := e.TrainStep(tokens, targets); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	e.Stats() // joins the clean step's write-back: the countdown starts at this step's first chunk op
	arm()
	_, stepErr := e.TrainStep(tokens, targets)
	if !errors.Is(stepErr, boom) {
		t.Fatalf("TrainStep with the fault armed = %v, want %v", stepErr, boom)
	}
	pipelineIdle(t, e)
	goroutinesBack(t, base)

	for dev := 0; dev < e.cfg.Devices; dev++ {
		e.Array().InjectFault(dev, nil)
	}
	poisonArena(e)
	loss, err := e.TrainStep(tokens, targets)
	if err != nil {
		t.Fatalf("TrainStep after fault cleared: %v", err)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("recovered step loss = %v", loss)
	}
	pipelineIdle(t, e)
	goroutinesBack(t, base)
	return stepErr
}

// allSSD swaps every one of n blocks to the SSD tier.
func allSSD(n int) map[int]Tier {
	swap := make(map[int]Tier, n)
	for i := 0; i < n; i++ {
		swap[i] = SwapSSD
	}
	return swap
}

// TestPipelineWriteFaultBarrier injects a device fault into the forward
// pass's write-behind traffic and checks each place the error can surface.
//
// One device, so every chunk op lands on it and the countdown is exact: a
// mini blob (3360 bytes) is one 4096-byte stripe chunk, and Serialized mode
// does no optimizer I/O until after backward — so from the step's start,
// chunk op k is exactly block k's activation write.
func TestPipelineWriteFaultBarrier(t *testing.T) {
	boom := errors.New("flash wear-out")

	// Squarely mid-pipeline: block 0's blob retires, block 1's write fails
	// while block 2 is still computing. Three blocks on a three-slot ring
	// reuse no slot, so the forward/backward barrier surfaces the error.
	t.Run("barrier", func(t *testing.T) {
		e := newEngine(t, Config{
			GradMode: agoffload.Serialized,
			Swap:     allSSD(3),
			Devices:  1,
			Tracer:   obs.NewTracer(0),
		})
		faultedStep(t, e, boom, func() { e.Array().InjectFaultAfter(0, 1, boom) })
	})

	// Six blocks on a two-slot ring: block 1's failed write sits in slot 1,
	// and block 3 reuses that slot. Taking the token there is the join, so
	// the step ends at block 3 — blocks 0..2 were queued, nothing after.
	t.Run("reuse", func(t *testing.T) {
		model := miniConfig()
		model.Layers = 6
		e := newEngine(t, Config{
			Model:         model,
			GradMode:      agoffload.Serialized,
			Swap:          allSSD(6),
			Devices:       1,
			PipelineDepth: 1,
		})
		var before units.Bytes
		faultedStep(t, e, boom, func() {
			before = e.Stats().ActBytesOffload
			e.Array().InjectFaultAfter(0, 1, boom)
		})
		// The recovered step offloaded all six blocks; what is left over is
		// the faulted step's.
		queued := e.Stats().ActBytesOffload - before - units.Bytes(6*e.blobLen)
		if max := units.Bytes(3 * e.blobLen); queued > max {
			t.Fatalf("faulted step queued %v of activations, want at most %v: the error surfaced later than the failed slot's reuse", queued, max)
		}
	})

	// A one-blob staging pool makes every block join its predecessor's write
	// before reserving. Two devices, each blob one chunk on each: device 1
	// fails at once while device 0 is slow, so block 0's failed write is
	// still in flight when block 1 runs out of pool — the error surfaces
	// inside the backpressure join.
	t.Run("backpressure", func(t *testing.T) {
		e := newEngine(t, Config{
			GradMode:   agoffload.Serialized,
			Swap:       allSSD(3),
			Devices:    2,
			HostMemory: units.Bytes(geometryOf(miniConfig()).blobBytes()),
			SSD:        &nvme.Config{StripeSize: 2048, OpLatency: 10 * time.Millisecond},
		})
		err := faultedStep(t, e, boom, func() { e.Array().InjectFault(1, boom) })
		if !strings.Contains(err.Error(), "host staging for block 1") {
			t.Fatalf("fault surfaced as %q, want it from block 1's backpressure join", err)
		}
	})
}

// TestPipelineReadFaultBarrier arms the countdown past the forward's three
// writes so a backward read-ahead fails: the first one, which backward is
// about to block on, or the second, launched together with the third while
// block 2's backward runs (depth 2). The fetch error must surface from
// TrainStep at the failed block's consume, and the failure-path barrier
// must join the read still in flight.
func TestPipelineReadFaultBarrier(t *testing.T) {
	boom := errors.New("uncorrectable read")
	for _, tc := range []struct {
		name  string
		after int // chunk ops that succeed first: 3 writes, then reads
	}{
		{"first", 3},
		{"mid-window", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, Config{
				GradMode: agoffload.Serialized,
				Swap:     allSSD(3),
				Devices:  1,
				// Slow enough that the mid-window case's two reads overlap.
				SSD: &nvme.Config{OpLatency: time.Millisecond},
			})
			err := faultedStep(t, e, boom, func() { e.Array().InjectFaultAfter(0, tc.after, boom) })
			if !strings.Contains(err.Error(), "fetch block") {
				t.Fatalf("fault surfaced as %q, want it from a block's fetch", err)
			}
		})
	}
}

// TestPipelineWindowStall pins the ring's flow control: a depth-1 window
// over three SSD blocks with a slow device must block block 2's encode on
// block 0's in-flight write. The stall is observable — counted in
// StepMetrics and recorded on the stall lane — and values stay identical to
// an unthrottled run with no overlap (the oracleSyncIO hook).
func TestPipelineWindowStall(t *testing.T) {
	swap := map[int]Tier{0: SwapSSD, 1: SwapSSD, 2: SwapSSD}
	tr := obs.NewTracer(0)
	slow := newEngine(t, Config{
		GradMode:      agoffload.Optimized,
		Swap:          swap,
		PipelineDepth: 1,
		SSD:           &nvme.Config{OpLatency: time.Millisecond},
		Tracer:        tr,
	})
	ref := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap, oracleSyncIO: true})

	slowLoss := trainK(t, slow, 2)
	refLoss := trainK(t, ref, 2)
	for i := range refLoss {
		if refLoss[i] != slowLoss[i] {
			t.Fatalf("loss[%d] differs under window stalls: %v vs %v", i, refLoss[i], slowLoss[i])
		}
	}
	pa, pb := paramsSnapshot(ref.Model()), paramsSnapshot(slow.Model())
	if !floatsEqual(pa, pb) {
		t.Fatal("window stalls changed trained parameters")
	}

	m := slow.LastStepMetrics()
	if m.OffloadStalls == 0 || m.OffloadStallWait <= 0 {
		t.Fatalf("depth-1 window over 3 slow writes recorded no stalls: %+v", m)
	}
	if m.OffloadQueuePeak == 0 {
		t.Fatalf("offload queue peak not recorded: %+v", m)
	}
	stallSpans := 0
	for _, s := range tr.Spans() {
		if s.Lane == obs.LaneStall {
			stallSpans++
			if s.End < s.Start {
				t.Fatalf("stall span ends before it starts: %+v", s)
			}
		}
	}
	if stallSpans == 0 {
		t.Fatal("no spans recorded on the stall lane")
	}
	pipelineIdle(t, slow)
}

// TestPipelinePoolBackpressure caps the host staging pool at exactly one
// blob: every block past the first must wait for an in-flight write to
// release its reservation before reserving its own. The retry loop must
// make progress (no deadlock, no spurious OOM), count its stalls, and keep
// values bit-identical.
func TestPipelinePoolBackpressure(t *testing.T) {
	swap := map[int]Tier{0: SwapSSD, 1: SwapSSD, 2: SwapSSD}
	blob := geometryOf(miniConfig()).blobBytes()
	tight := newEngine(t, Config{
		GradMode:   agoffload.Optimized,
		Swap:       swap,
		HostMemory: units.Bytes(blob), // exactly one blob in flight
		SSD:        &nvme.Config{OpLatency: time.Millisecond},
	})
	ref := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap, oracleSyncIO: true})

	tightLoss := trainK(t, tight, 2)
	refLoss := trainK(t, ref, 2)
	for i := range refLoss {
		if refLoss[i] != tightLoss[i] {
			t.Fatalf("loss[%d] differs under pool backpressure: %v vs %v", i, refLoss[i], tightLoss[i])
		}
	}
	if !floatsEqual(paramsSnapshot(ref.Model()), paramsSnapshot(tight.Model())) {
		t.Fatal("pool backpressure changed trained parameters")
	}
	if m := tight.LastStepMetrics(); m.OffloadStalls == 0 {
		t.Fatalf("one-blob staging pool over 3 slow writes recorded no stalls: %+v", m)
	}
	pipelineIdle(t, tight)
}

// TestHostTierRecoversAfterFailedStep: a step that fails after forward pinned
// every host-tier blob releases their reservations with the rest of the
// step, so a HostMemory sized exactly to the host tier — the split
// ProfileAndPlan's MemAvail is designed for — keeps training afterwards
// instead of failing every later step out of memory.
func TestHostTierRecoversAfterFailedStep(t *testing.T) {
	model := miniConfig()
	e := newEngine(t, Config{
		GradMode:   agoffload.Optimized,
		Swap:       map[int]Tier{0: SwapHost, 1: SwapHost, 2: SwapHost},
		HostMemory: units.Bytes(model.Layers * geometryOf(model).blobBytes()),
	})
	tokens, targets := data(model, 1)
	if _, err := e.TrainStep(tokens, targets); err != nil {
		t.Fatal(err)
	}
	bad := [][]int{append([]int(nil), targets[0]...), targets[1]}
	bad[0][0] = model.Vocab + 5
	if _, err := e.TrainStep(tokens, bad); err == nil || !strings.Contains(err.Error(), "out of vocabulary") {
		t.Fatalf("TrainStep with a bad target = %v, want the vocabulary error", err)
	}
	pipelineIdle(t, e)
	for step := 0; step < 3; step++ {
		if _, err := e.TrainStep(tokens, targets); err != nil {
			t.Fatalf("clean step %d after the failed one: %v", step, err)
		}
		pipelineIdle(t, e)
	}
}

// TestPipelineBuffersAllocatedOnce: every activation buffer has one
// structural owner — a host-tier block its blob, a ring slot its blob — so
// the buffers a warm engine uses at step 3 are the ones it uses at step 8,
// past any count a shared free list would retain, and SetSwap drops exactly
// the blobs of blocks that left the host tier.
func TestPipelineBuffersAllocatedOnce(t *testing.T) {
	const hostBlocks = 16
	model := miniConfig()
	model.Layers = hostBlocks + 2
	swap := map[int]Tier{hostBlocks: SwapSSD, hostBlocks + 1: SwapSSD}
	for i := 0; i < hostBlocks; i++ {
		swap[i] = SwapHost
	}
	e := newEngine(t, Config{Model: model, GradMode: agoffload.Optimized, Swap: swap})
	bases := func() []*byte {
		var out []*byte
		base := func(b []byte) {
			if b == nil {
				out = append(out, nil)
			} else {
				out = append(out, &b[0])
			}
		}
		for i := range e.arena.host {
			base(e.arena.host[i].blob)
		}
		for _, s := range ringSlots(e.win) {
			base(s.blob)
		}
		return out
	}
	trainK(t, e, 3)
	warm := bases()
	owned := map[*byte]bool{}
	for i, b := range warm[:hostBlocks] {
		if b == nil || owned[b] {
			t.Fatalf("host-tier block %d has no blob of its own after 3 steps", i)
		}
		owned[b] = true
	}
	trainFrom(t, e, 3, 5)
	for i, b := range bases() {
		if b != warm[i] {
			t.Fatalf("buffer %d moved between step 3 and step 8: the data path allocated", i)
		}
	}
	// Per step a host-tier block asks for its blob once (forward) and an SSD
	// block for its slot three times (encode, fetch launch, consume).
	if got, want := e.arena.blobReuses.Load(), int64(8*(hostBlocks+3*2)-model.Layers); got != want {
		t.Fatalf("blob_reuses = %d after 8 steps, want %d (every use but each buffer's first)", got, want)
	}

	delete(swap, 0)
	if err := e.SetSwap(swap); err != nil {
		t.Fatal(err)
	}
	for i := range e.arena.host {
		if gone := e.arena.host[i].blob == nil; gone != (i == 0 || i >= hostBlocks) {
			t.Fatalf("after SetSwap moved block 0 out of the host tier, block %d blob dropped = %v", i, gone)
		}
	}
	trainFrom(t, e, 8, 1)
	pipelineIdle(t, e)
}

// TestPipelineDepthValidation: a negative window is a configuration error,
// not a silent fallback.
func TestPipelineDepthValidation(t *testing.T) {
	if _, err := New(Config{Model: miniConfig(), PipelineDepth: -1}); err == nil {
		t.Fatal("New accepted a negative PipelineDepth")
	}
}

// TestSwapValidation: a placement naming a block the model lacks or a tier
// that does not exist is refused by New and by SetSwap, which keeps the
// placement it had; it used to train under some other placement.
func TestSwapValidation(t *testing.T) {
	good := map[int]Tier{0: SwapSSD, 1: SwapHost, 2: Recompute}
	e := newEngine(t, Config{Swap: good})
	for _, tc := range []struct {
		name string
		swap map[int]Tier
		ok   bool
	}{
		{"every tier", good, true},
		{"nil", nil, true},
		{"block past the last", map[int]Tier{3: SwapSSD}, false},
		{"negative block", map[int]Tier{-1: SwapHost}, false},
		{"tier past the last", map[int]Tier{0: Tier(9)}, false},
		{"negative tier", map[int]Tier{0: Tier(-1)}, false},
	} {
		built, err := New(Config{Model: miniConfig(), Swap: tc.swap})
		if err == nil {
			err = built.Close()
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: New = %v, want accepted = %v", tc.name, err, tc.ok)
		}
		if err := e.SetSwap(good); err != nil {
			t.Fatal(err)
		}
		if err := e.SetSwap(tc.swap); (err == nil) != tc.ok {
			t.Errorf("%s: SetSwap = %v, want accepted = %v", tc.name, err, tc.ok)
		} else if !tc.ok && len(e.cfg.Swap) != len(good) {
			t.Errorf("%s: the refused placement was installed", tc.name)
		}
	}
}

// TestPipelineDefaultDepth: the zero Config gets DefaultPipelineDepth, a
// matching ring and one worker per in-flight transfer.
func TestPipelineDefaultDepth(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized})
	if e.depth != DefaultPipelineDepth || e.EffectiveDepth() != DefaultPipelineDepth {
		t.Fatalf("default engine: depth %d", e.depth)
	}
	if len(e.win.ring) != DefaultPipelineDepth+1 || cap(e.win.jobs) != len(e.win.ring) {
		t.Fatalf("ring has %d slots and room for %d jobs, want depth+1 = %d", len(e.win.ring), cap(e.win.jobs), DefaultPipelineDepth+1)
	}
}

// TestStepSpawnsNoGoroutine: the activation window's workers are built with
// the engine, so a steady-state swap step — write-behind, read-ahead and
// the optimizer's state pipeline all busy — starts no goroutine.
func TestStepSpawnsNoGoroutine(t *testing.T) {
	e := newEngine(t, Config{
		GradMode: agoffload.Optimized,
		Swap:     map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD},
		SSD:      &nvme.Config{OpLatency: 100 * time.Microsecond},
	})
	trainK(t, e, 1)
	base := runtime.NumGoroutine()
	for s := 0; s < 5; s++ {
		trainK(t, e, 1)
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("step %d: %d goroutines, %d before it", s, n, base)
		}
	}
	pipelineIdle(t, e)
}

// TestSlotProtocolStaysInPipeline: the window's acquire and release — and the
// ring they guard — have no user outside pipeline.go, so "every slot taken is
// given up exactly once" is read off that one file's three methods.
func TestSlotProtocolStaysInPipeline(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "pipeline.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if ok && (sel.Sel.Name == "acquire" || sel.Sel.Name == "release" || sel.Sel.Name == "ring") {
					t.Errorf("%s uses .%s: the slot protocol belongs to pipeline.go", name, sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// TestWindowProtocolUnderFailure drives the window's three methods directly,
// between steps, with a failure injected at each internal stage, at depths 1
// and 3. Whatever fails, the method has given its slot up and its error is
// reported exactly once: the failure-path barrier finds nothing left, the
// window is idle, no goroutine was spawned, and the engine trains on.
func TestWindowProtocolUnderFailure(t *testing.T) {
	boom := errors.New("boom")
	fill := func(blob []byte) error { blob[0] = 1; return nil }
	use := func([]byte) error { return nil }
	failing := func([]byte) error { return boom }
	// stored offloads block 0 and joins the write, so a fetch of it can start.
	stored := func(t *testing.T, w *actWindow) {
		t.Helper()
		if err := errors.Join(w.offload(0, fill), w.barrier()); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		want error
		run  func(t *testing.T, e *Engine) error
	}{
		{"offload/acquire returns the last write's error", boom, func(t *testing.T, e *Engine) error {
			e.Array().InjectFault(0, boom)
			if err := e.win.offload(0, fill); err != nil { // fails in the worker
				t.Fatal(err)
			}
			return e.win.offload(len(e.win.ring), fill) // the same slot
		}},
		{"prefetch/acquire returns the last write's error", boom, func(t *testing.T, e *Engine) error {
			e.Array().InjectFault(0, boom)
			if err := e.win.offload(0, fill); err != nil {
				t.Fatal(err)
			}
			return e.win.prefetch(0)
		}},
		{"consume/acquire returns the fetch's error", boom, func(t *testing.T, e *Engine) error {
			stored(t, e.win)
			e.Array().InjectFault(0, boom)
			if err := e.win.prefetch(0); err != nil {
				t.Fatal(err)
			}
			return e.win.consume(0, use)
		}},
		{"offload/fill fails", boom, func(t *testing.T, e *Engine) error {
			return e.win.offload(0, failing)
		}},
		{"offload/staging refused with no write to join", memctl.ErrOOM, func(t *testing.T, e *Engine) error {
			held := e.cfg.HostMemory // the host tier, say, holds the whole pool
			if err := e.hostPool.Alloc(held); err != nil {
				t.Fatal(err)
			}
			defer e.hostPool.Free(held)
			return e.win.offload(0, fill)
		}},
		{"consume/use fails", boom, func(t *testing.T, e *Engine) error {
			stored(t, e.win)
			if err := e.win.prefetch(0); err != nil {
				t.Fatal(err)
			}
			return e.win.consume(0, failing)
		}},
		{"device fault mid-window", boom, func(t *testing.T, e *Engine) error {
			e.Array().InjectFaultAfter(0, 1, boom) // the second write of a full ring
			for block := range e.win.ring {
				if err := e.win.offload(block, fill); err != nil {
					t.Fatal(err)
				}
			}
			return e.win.barrier()
		}},
	} {
		for _, depth := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/depth%d", tc.name, depth), func(t *testing.T) {
				model := miniConfigWith(depth + 2)
				e := newEngine(t, Config{
					Model:         model,
					GradMode:      agoffload.Serialized,
					Swap:          allSSD(model.Layers),
					Devices:       1,
					PipelineDepth: depth,
					HostMemory:    units.Bytes((depth + 1) * geometryOf(model).blobBytes()),
				})
				trainK(t, e, 1)
				e.Stats() // joins the step's write-back: nothing but the window touches the device below
				base := runtime.NumGoroutine()
				if err := tc.run(t, e); !errors.Is(err, tc.want) {
					t.Fatalf("got %v, want %v", err, tc.want)
				}
				for slot, tok := range e.win.ring { // every transfer above was joined: nothing to wait for
					if len(tok) != 1 {
						t.Fatalf("slot %d was taken and not given up", slot)
					}
				}
				if err := e.win.barrier(); err != nil {
					t.Fatalf("the failure-path barrier found %v: reported twice, or left in a slot", err)
				}
				pipelineIdle(t, e)
				goroutinesBack(t, base)
				e.Array().InjectFault(0, nil)
				trainFrom(t, e, 1, 1)
				pipelineIdle(t, e)
			})
		}
	}
}
