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
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/tensor"
	"ratel/internal/units"
)

// pipelineIdle asserts the invariants the step barrier guarantees between
// steps, successful or failed: no ring slot holds a ticket (so no transfer
// in flight, in either direction, and every transfer error taken), each
// slot has a buffer of its own, no host-tier blob is still pinned.
func pipelineIdle(t *testing.T, e *Engine) {
	t.Helper()
	owner := map[*byte]int{}
	for slot, s := range e.win.ring {
		if s.t != nil {
			t.Fatalf("ring-slot %d still holds a ticket after the step barrier", slot)
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
			t.Fatalf("block %d still pinned after the step barrier", i)
		}
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
	for _, s := range e.win.ring {
		poison(s.blob)
	}
	for i := range e.arena.host {
		poison(e.arena.host[i].blob)
	}
	return n
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

	// Block 4 of five is the last into its slot of the three-slot ring, so
	// backward would decode it from the slot without reading it back. Its
	// write still fails the step, at the forward/backward barrier: the blob
	// never reached the array.
	t.Run("resident", func(t *testing.T) {
		e := newEngine(t, Config{
			Model:    miniConfigWith(5),
			GradMode: agoffload.Serialized,
			Swap:     allSSD(5),
			Devices:  1,
		})
		err := faultedStep(t, e, boom, func() { e.Array().InjectFaultAfter(0, 4, boom) })
		if !strings.Contains(err.Error(), "offload activations") {
			t.Fatalf("fault surfaced as %q, want it from the offload barrier", err)
		}
	})
}

// TestPipelineReadFaultBarrier arms the countdown past the forward's six
// writes so a backward read-ahead fails. At depth 2 blocks 5, 4 and 3 are
// still in their ring slots, so backward reads blocks 2, 1 and 0, each
// launched when the block two above it is consumed: the fault hits the first
// read, which backward blocks on first, or the second, whose consume finds the
// third in flight. The fetch error must surface from TrainStep at the failed
// block's consume, and the failure-path barrier must join the read still in
// flight.
func TestPipelineReadFaultBarrier(t *testing.T) {
	boom := errors.New("uncorrectable read")
	for _, tc := range []struct {
		name  string
		after int // chunk ops that succeed first: 6 writes, then reads
	}{
		{"first", 6},
		{"mid-window", 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, Config{
				Model:    miniConfigWith(6),
				GradMode: agoffload.Serialized,
				Swap:     allSSD(6),
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

// TestPipelineResidentReadFaultNeverFires: three blocks on the default
// three-slot ring are all still in their slots when backward wants them, so a
// device fault armed at the first chunk op after forward's three writes —
// where block 2 used to be read back — finds no activation read to fail. The
// released hook disarms it at the batch's last release, block 0's backward,
// before the Serialized update's first state read would trip it: the step
// succeeds without reading an activation byte.
func TestPipelineResidentReadFaultNeverFires(t *testing.T) {
	boom := errors.New("uncorrectable read")
	e := newEngine(t, Config{GradMode: agoffload.Serialized, Swap: allSSD(3), Devices: 1})
	trainK(t, e, 1)
	e.Stats() // joins the write-back: nothing touches the device before the step
	// The batch's top, then one release per block per pass.
	releases, last := 0, 1+2*e.cfg.Model.Layers
	e.released = func(*tensor.Tensor) {
		if releases++; releases == last {
			e.Array().InjectFault(0, nil)
		}
	}
	before := e.Flows()
	e.Array().InjectFaultAfter(0, 3, boom)
	trainFrom(t, e, 1, 1)
	e.released = nil
	if releases != last {
		t.Fatalf("%d releases in the step, want %d", releases, last)
	}
	st := e.Stats()
	if got := e.Flows().Sub(before).Get(obs.EdgeHostNVMeRead, obs.FlowActivations); got != 0 {
		t.Fatalf("the step read %d activation bytes back, want 0", got)
	}
	if want := units.Bytes(2 * 3 * e.blobLen); st.ActBytesResident != want {
		t.Fatalf("ActBytesResident = %v after two all-resident steps, want %v", st.ActBytesResident, want)
	}
	pipelineIdle(t, e)
}

// TestPipelineResidentBlocksTraceNoRead: a traced all-SSD step over five
// blocks at depth 2 writes every blob and reads back blocks 0 and 1 only:
// blocks 2, 3 and 4, one per ring slot, show no act-prefetch span and no
// act/blockN nvme-read span.
func TestPipelineResidentBlocksTraceNoRead(t *testing.T) {
	tr := obs.NewTracer(obs.DefaultCapacity)
	e := newEngine(t, Config{Model: miniConfigWith(5), GradMode: agoffload.Optimized, Swap: allSSD(5), Tracer: tr})
	trainK(t, e, 1)
	spans := map[[2]string]int{} // lane, name
	for _, s := range tr.Spans() {
		spans[[2]string{s.Lane, s.Name}]++
	}
	for i := range e.labels {
		l := &e.labels[i]
		reads := 1
		if i >= 2 {
			reads = 0
		}
		for _, c := range []struct {
			lane, name string
			want       int
		}{
			{obs.LaneNVMeWrite, l.actKey, 1},
			{obs.LanePrefetch, l.prefetch, reads},
			{obs.LaneNVMeRead, l.actKey, reads},
		} {
			if got := spans[[2]string{c.lane, c.name}]; got != c.want {
				t.Errorf("%d %q spans on lane %q, want %d", got, c.name, c.lane, c.want)
			}
		}
	}
}

// actStep is one optimizer step's activation bytes: the engine's counters,
// and the array's act/ traffic as the flow ledger's activation cells on the
// NVMe edges, which the array feeds where it counts its own bytes
// (TestFlowLedgerReconcilesWithNVMe).
type actStep struct{ offload, host, fetched, resident, read, write units.Bytes }

// stepAct runs one optimizer step over micro and returns its activation bytes.
func stepAct(t *testing.T, e *Engine, micro []Batch) actStep {
	t.Helper()
	st0, flows0 := e.Stats(), e.Flows()
	if _, err := e.TrainStepAccum(micro); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	d := e.Flows().Sub(flows0)
	return actStep{
		offload:  st.ActBytesOffload - st0.ActBytesOffload,
		host:     st.ActBytesHost - st0.ActBytesHost,
		fetched:  st.ActBytesFetched - st0.ActBytesFetched,
		resident: st.ActBytesResident - st0.ActBytesResident,
		read:     units.Bytes(d.Get(obs.EdgeHostNVMeRead, obs.FlowActivations)),
		write:    units.Bytes(d.Get(obs.EdgeHostNVMeWrite, obs.FlowActivations)),
	}
}

// microBatches is n micro-batches of the model's shape.
func microBatches(model nn.Config, n int) []Batch {
	out := make([]Batch, n)
	for i := range out {
		out[i].Tokens, out[i].Targets = data(model, int64(i))
	}
	return out
}

// ssdBlocks counts the SSD-tier blocks of a placement.
func ssdBlocks(swap map[int]Tier) int {
	n := 0
	for _, tier := range swap {
		if tier == SwapSSD {
			n++
		}
	}
	return n
}

// TestPipelineResidentSet counts the resident-set rule on four placements of
// six blocks, at depths 1 to 3, with one and two micro-batches, on an array
// slow enough to keep reads in flight across consumes. The rule: block i
// offloads into ring slot i mod (depth+1), and when backward starts each slot
// still holds the blob of the last SSD-tier block that offloaded into it — so
// the resident blocks are one per slot the SSD blocks use, and the array reads
// back micro × blob × (SSD blocks − resident blocks) per step. The counts
// close: every activation byte restored is one the array read back, one a slot
// still held or one the host tier pinned (fetched = read + resident + host,
// exactly), and every SSD block still writes its blob once per micro-batch
// (ActBytesOffload = the array's act/ write bytes).
func TestPipelineResidentSet(t *testing.T) {
	const layers = 6
	for _, pl := range []struct {
		name string
		swap map[int]Tier
	}{
		{"all-ssd", allSSD(layers)},
		{"ssd-host-ssd", map[int]Tier{0: SwapSSD, 1: SwapHost, 3: SwapSSD}},
		{"ssd-recompute", map[int]Tier{0: SwapSSD, 2: SwapSSD, 4: SwapSSD}},
		{"single-ssd", map[int]Tier{2: SwapSSD}},
	} {
		for depth := 1; depth <= 3; depth++ {
			slots := map[int]bool{}
			for i, tier := range pl.swap {
				if tier == SwapSSD {
					slots[i%(depth+1)] = true
				}
			}
			ssd, resident := ssdBlocks(pl.swap), len(slots)
			for micro := 1; micro <= 2; micro++ {
				t.Run(fmt.Sprintf("%s/depth%d/micro%d", pl.name, depth, micro), func(t *testing.T) {
					model := miniConfigWith(layers)
					e := newEngine(t, Config{
						Model:         model,
						GradMode:      agoffload.Optimized,
						Swap:          pl.swap,
						PipelineDepth: depth,
						SSD:           &nvme.Config{OpLatency: 200 * time.Microsecond},
					})
					batches := microBatches(model, micro)
					blob := units.Bytes(e.blobLen)
					for step := 0; step < 2; step++ {
						got := stepAct(t, e, batches)
						if want := units.Bytes(micro*(ssd-resident)) * blob; got.read != want {
							t.Fatalf("step %d: read back %v of activations, want %v (%d SSD blocks, %d resident)", step, got.read, want, ssd, resident)
						}
						if want := units.Bytes(micro*resident) * blob; got.resident != want {
							t.Fatalf("step %d: decoded %v from ring slots, want %v", step, got.resident, want)
						}
						if got.fetched != got.read+got.resident+got.host {
							t.Fatalf("step %d: fetched %v, want read %v + resident %v + host %v", step, got.fetched, got.read, got.resident, got.host)
						}
						if want := units.Bytes(micro*ssd) * blob; got.offload != want || got.write != want {
							t.Fatalf("step %d: offloaded %v and wrote %v of activations, want %v each", step, got.offload, got.write, want)
						}
					}
					pipelineIdle(t, e)
				})
			}
		}
	}
}

// TestPipelineWindowStall pins the ring's flow control: a depth-1 window
// over three SSD blocks with a slow device must block block 2's encode on
// block 0's in-flight write. The stall is observable — counted in
// StepMetrics and recorded on the stall lane — and values stay identical to
// an unthrottled run with no overlap (the oracleSyncIO hook).
//
// The lane charges a write's OpLatency from its enqueue, so block 0's write
// is still in flight at block 2's encode unless the step goroutine spends
// longer than OpLatency on block 1 and block 2. At 1 ms one scheduler time
// slice lost to a loaded host was enough; 20 ms is far beyond what a busy
// machine takes from a runnable goroutine.
func TestPipelineWindowStall(t *testing.T) {
	swap := map[int]Tier{0: SwapSSD, 1: SwapSSD, 2: SwapSSD}
	tr := obs.NewTracer(0)
	slow := newEngine(t, Config{
		GradMode:      agoffload.Optimized,
		Swap:          swap,
		PipelineDepth: 1,
		SSD:           &nvme.Config{OpLatency: 20 * time.Millisecond},
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

// TestHostTierRecoversAfterFailedStep: a step that fails after forward pinned
// every host-tier blob unpins them with the rest of the step, and training
// goes on afterwards.
func TestHostTierRecoversAfterFailedStep(t *testing.T) {
	model := miniConfig()
	e := newEngine(t, Config{
		GradMode: agoffload.Optimized,
		Swap:     map[int]Tier{0: SwapHost, 1: SwapHost, 2: SwapHost},
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
	const hostBlocks, ssd, slots = 16, 4, DefaultPipelineDepth + 1
	model := miniConfigWith(hostBlocks + ssd)
	swap := map[int]Tier{}
	for i := 0; i < model.Layers; i++ {
		swap[i] = SwapSSD
		if i < hostBlocks {
			swap[i] = SwapHost
		}
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
		for _, s := range e.win.ring {
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
	// block for its slot twice (encode, consume), plus a fetch launch for each
	// one below the last `slots`, which backward finds still in their slots.
	uses := hostBlocks + 2*ssd + (ssd - slots)
	if got, want := e.arena.blobReuses.Load(), int64(8*uses-(hostBlocks+slots)); got != want {
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

// TestGradModeValidation: a gradient mode the engine has no schedule for —
// the simulator's Readiness, or no mode at all — is refused by New, naming
// the mode; it used to train as Serialized.
func TestGradModeValidation(t *testing.T) {
	for _, mode := range []agoffload.Mode{agoffload.Readiness, 99} {
		e, err := New(Config{Model: miniConfig(), GradMode: mode})
		if err == nil {
			e.Close()
			t.Fatalf("New accepted gradient mode %v", mode)
		}
		if !strings.Contains(err.Error(), mode.String()) {
			t.Errorf("New's error for mode %v does not name it: %v", mode, err)
		}
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

// TestPipelineDefaultDepth: the zero Config gets DefaultPipelineDepth and a
// matching ring, and the window starts no goroutine of its own: New starts
// the array's lane dispatchers and the state pipeline's stage, nothing else.
func TestPipelineDefaultDepth(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized})
	if e.depth != DefaultPipelineDepth || len(e.win.ring) != DefaultPipelineDepth+1 {
		t.Fatalf("default engine: depth %d, %d ring slots, want %d and depth+1", e.depth, len(e.win.ring), DefaultPipelineDepth)
	}
}

// TestStepSpawnsNoGoroutine: a steady-state swap step — write-behind,
// read-ahead and the optimizer's state pipeline all busy — starts no
// goroutine; and Close joins the activation transfers: with a write in
// flight it returns only once the write has been served and its ticket
// waited on.
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
	writes := e.Stats().SSD.WriteOps // joins the state write-back
	if err := e.win.offload(0, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if e.win.ring[0].t == nil || e.win.ring[0].t.Done() {
		t.Fatal("the write finished before Close: the test holds nothing in flight")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.Array().Stats().WriteOps; got != writes+1 || e.win.ring[0].t != nil {
		t.Fatalf("Close returned with %d of %d writes waited on, slot 0's ticket %v", got-writes, 1, e.win.ring[0].t)
	}
}

// TestNewStartsDispatchersAndOneStage counts the goroutines of an engine:
// New starts the array's lane dispatchers — two per device, one per device
// under the FCFS oracle — and the state pipeline's stage, and nothing else,
// on each of the benchmark's workload shapes at its array width; Close joins
// every one.
func TestNewStartsDispatchersAndOneStage(t *testing.T) {
	tensor.Parallelism() // starts the kernel pool, whose workers outlive the test
	devices := map[string]int{"io_mixed": 3, "opt_stream": 3, "compute": 4, "accum_ckpt_file": 4}
	for name, cfg := range workloadShapes() {
		for _, fcfs := range []bool{false, true} {
			cfg.Devices, cfg.oracleFCFS = devices[name], fcfs
			if name == "accum_ckpt_file" {
				cfg.Dir = t.TempDir()
			}
			want := 2*cfg.Devices + 1
			if fcfs {
				want = cfg.Devices + 1
			}
			base := runtime.NumGoroutine()
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := runtime.NumGoroutine() - base; got != want {
				t.Errorf("%s (fcfs %v): New started %d goroutines, want %d", name, fcfs, got, want)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			goroutinesBack(t, base)
		}
	}
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
	// stored offloads block 0, then block len(ring) into the same slot, and
	// joins both writes: block 0 is on the array and no longer in its slot, so
	// its consume must follow a prefetch that reads the array.
	stored := func(t *testing.T, w *actWindow) {
		t.Helper()
		if err := errors.Join(w.offload(0, fill), w.offload(len(w.ring), fill), w.barrier()); err != nil {
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
			if err := e.win.offload(len(e.win.ring), fill); err != nil { // block 0's slot, now another block's
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
			return e.win.consume(0, false, use)
		}},
		{"offload/fill fails", boom, func(t *testing.T, e *Engine) error {
			return e.win.offload(0, failing)
		}},
		{"consume/use fails", boom, func(t *testing.T, e *Engine) error {
			stored(t, e.win)
			if err := e.win.prefetch(0); err != nil {
				t.Fatal(err)
			}
			return e.win.consume(0, false, failing)
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
				})
				trainK(t, e, 1)
				e.Stats() // joins the step's write-back: nothing but the window touches the device below
				base := runtime.NumGoroutine()
				if err := tc.run(t, e); !errors.Is(err, tc.want) {
					t.Fatalf("got %v, want %v", err, tc.want)
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
