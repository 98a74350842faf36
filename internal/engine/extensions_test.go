package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/tensor"
	"ratel/internal/units"
)

// TestHostTierTransparency: pinning caches in main memory (SwapHost) is
// bit-identical to the SSD tier and to recomputation.
func TestHostTierTransparency(t *testing.T) {
	ref := newEngine(t, Config{GradMode: agoffload.Optimized})
	refLoss := trainK(t, ref, 3)

	host := newEngine(t, Config{
		GradMode: agoffload.Optimized,
		Swap:     map[int]Tier{0: SwapHost, 1: SwapHost, 2: SwapHost},
	})
	hostLoss := trainK(t, host, 3)
	for i := range refLoss {
		if refLoss[i] != hostLoss[i] {
			t.Fatalf("loss[%d]: recompute %v vs host tier %v", i, refLoss[i], hostLoss[i])
		}
	}
	a, b := paramsSnapshot(ref.Model()), paramsSnapshot(host.Model())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("host-tier training diverged")
		}
	}
	st := host.Stats()
	if st.ActBytesHost == 0 {
		t.Error("host tier saw no traffic")
	}
	if st.ActBytesOffload != 0 {
		t.Error("host tier should not write the SSD")
	}
	if st.ActBytesFetched != st.ActBytesHost {
		t.Errorf("fetched %v != pinned %v", st.ActBytesFetched, st.ActBytesHost)
	}
}

// TestMixedTiers: host, SSD and recompute blocks interleave transparently
// (the α split of Eq. 3 at engine granularity).
func TestMixedTiers(t *testing.T) {
	ref := newEngine(t, Config{GradMode: agoffload.Serialized})
	refLoss := trainK(t, ref, 2)

	mixed := newEngine(t, Config{
		GradMode: agoffload.Optimized,
		Swap:     map[int]Tier{0: SwapHost, 2: SwapSSD}, // block 1 recomputes
	})
	got := trainK(t, mixed, 2)
	for i := range refLoss {
		if refLoss[i] != got[i] {
			t.Fatalf("loss[%d] differs under mixed tiers", i)
		}
	}
	st := mixed.Stats()
	if st.ActBytesHost == 0 || st.ActBytesOffload == 0 || st.RecomputedBlocks != 2 {
		t.Errorf("mixed-tier traffic wrong: %+v", st)
	}
}

// TestHostTierReleasesMemory: after backward, host-tier reservations are
// freed, so a pool sized for one step suffices indefinitely.
func TestHostTierReleasesMemory(t *testing.T) {
	e := newEngine(t, Config{
		GradMode:   agoffload.Optimized,
		Swap:       map[int]Tier{0: SwapHost, 1: SwapHost, 2: SwapHost},
		HostMemory: 64 * units.KiB, // roughly one step's caches
	})
	for s := 0; s < 4; s++ {
		tokens, targets := data(e.cfg.Model, int64(s))
		if _, err := e.TrainStep(tokens, targets); err != nil {
			t.Fatalf("step %d: %v (host tier leaking?)", s, err)
		}
	}
	if used := e.hostPool.Used(); used != 0 {
		t.Errorf("host pool retains %v after steps", used)
	}
}

// TestDelayedUpdateStaleness demonstrates footnote 4: the one-step delayed
// update produces *different* parameters than synchronous training — the
// staleness Ratel's active gradient offloading avoids.
func TestDelayedUpdateStaleness(t *testing.T) {
	sync := newEngine(t, Config{GradMode: agoffload.Optimized})
	trainK(t, sync, 4)

	delayed := newEngine(t, Config{GradMode: agoffload.Optimized, DelayedUpdate: true})
	trainK(t, delayed, 4)
	if err := delayed.FlushDelayed(); err != nil {
		t.Fatal(err)
	}

	a, b := paramsSnapshot(sync.Model()), paramsSnapshot(delayed.Model())
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("delayed update produced identical parameters; staleness not modeled")
	}
	// Both applied the same number of optimizer steps after the flush.
	if sync.optimizer.Step() != delayed.optimizer.Step() {
		t.Errorf("steps: sync %d vs delayed %d", sync.optimizer.Step(), delayed.optimizer.Step())
	}
}

// TestDelayedUpdateStillLearns: staleness changes the trajectory but the
// loss still decreases on a fixed batch (why ZeRO-Offload ships it as an
// option).
func TestDelayedUpdateStillLearns(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized, DelayedUpdate: true})
	tokens, targets := data(e.cfg.Model, 11)
	var first, last float64
	for s := 0; s < 10; s++ {
		loss, err := e.TrainStep(tokens, targets)
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("delayed update never learned: %.4f -> %.4f", first, last)
	}
	if err := e.FlushDelayed(); err != nil {
		t.Fatal(err)
	}
	if err := e.FlushDelayed(); err != nil { // second flush is a no-op
		t.Fatal(err)
	}
}

// TestCheckpointResume: save after k steps, restore into a fresh engine,
// continue — bit-identical to an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	straight := newEngine(t, Config{GradMode: agoffload.Optimized})
	trainK(t, straight, 5)
	want := paramsSnapshot(straight.Model())

	first := newEngine(t, Config{GradMode: agoffload.Optimized})
	trainK(t, first, 3)
	var buf bytes.Buffer
	if err := first.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	resumed := newEngine(t, Config{GradMode: agoffload.Optimized})
	if err := resumed.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Continue with the same batches 3 and 4.
	for s := 3; s < 5; s++ {
		tokens, targets := data(resumed.cfg.Model, int64(s))
		if _, err := resumed.TrainStep(tokens, targets); err != nil {
			t.Fatal(err)
		}
	}
	got := paramsSnapshot(resumed.Model())
	for i := range want {
		if want[i] != got[i] {
			t.Fatal("resumed run diverged from uninterrupted run")
		}
	}
}

// TestCheckpointErrors covers the failure paths that are not a spoiled
// checkpoint of the engine's own model (TestTornRestoreLatches): garbage,
// another model's checkpoint, a gob checkpoint of format 1 and a format this
// engine does not know are all refused before anything is written.
func TestCheckpointErrors(t *testing.T) {
	e := newEngine(t, Config{})
	trainK(t, e, 1)
	var own bytes.Buffer
	if err := e.SaveCheckpoint(&own); err != nil {
		t.Fatal(err)
	}
	small := newEngine(t, Config{Model: miniConfigWith(2)})
	var other bytes.Buffer
	if err := small.SaveCheckpoint(&other); err != nil {
		t.Fatal(err)
	}
	gob, err := os.ReadFile("testdata/format1.ckpt") // saved by PR 28's engine
	if err != nil {
		t.Fatal(err)
	}
	format3 := append([]byte(nil), own.Bytes()...)
	format3[8] = 3
	for name, c := range map[string]struct {
		ck   []byte
		want string
	}{
		"garbage":       {[]byte("garbage"), "header"},
		"other model":   {other.Bytes(), "groups"},
		"format 1":      {gob, "format 1 (gob)"},
		"future format": {format3, "format 3"},
	} {
		if err := e.LoadCheckpoint(bytes.NewReader(c.ck)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: LoadCheckpoint = %v, want a refusal naming %q", name, err, c.want)
		}
		var now bytes.Buffer
		if err := e.SaveCheckpoint(&now); err != nil || !bytes.Equal(now.Bytes(), own.Bytes()) {
			t.Fatalf("%s: the refused checkpoint changed the engine (save: %v)", name, err)
		}
	}
}

// TestCheckpointLayout pins the format: a checkpoint is exactly the header
// (fixed fields, table of contents, checksum) and each group's state object
// as the array stores it followed by its CRC-32C; loading reads exactly that
// many bytes and no more; and saving what was loaded gives the same bytes.
func TestCheckpointLayout(t *testing.T) {
	cfg := Config{GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapSSD, 1: SwapHost}}
	e := newEngine(t, cfg)
	trainK(t, e, 2)
	var buf bytes.Buffer
	if err := e.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ck := buf.Bytes()
	header, payload := ckptLayout(e)
	size := ckptFixed + 4
	for _, g := range e.groups {
		size += (8 + 2 + len(g.Name)) + 12*g.NumParams() + 4
	}
	if len(ck) != size || payload[len(payload)-1]+12*e.groups[len(e.groups)-1].NumParams()+4 != size {
		t.Fatalf("checkpoint is %d bytes, want header %d + Σ(entry + 12n + 4) = %d", len(ck), header, size)
	}
	if string(ck[:8]) != ckptMagic || binary.LittleEndian.Uint32(ck[8:]) != 2 ||
		binary.LittleEndian.Uint64(ck[16:]) != 2 || binary.LittleEndian.Uint64(ck[24:]) != e.model.Step() {
		t.Fatalf("fixed header % x", ck[:ckptFixed])
	}
	for i, g := range e.groups {
		obj := make([]byte, 12*g.NumParams())
		if err := e.Array().ReadInto("states/"+g.Name+"/state", obj); err != nil {
			t.Fatal(err)
		}
		at := payload[i]
		if !bytes.Equal(ck[at:at+len(obj)], obj) {
			t.Fatalf("%s: payload is not the stored state object", g.Name)
		}
		if binary.LittleEndian.Uint32(ck[at+len(obj):]) != crc32.Checksum(obj, castagnoli) {
			t.Fatalf("%s: the payload's CRC-32C is not its own", g.Name)
		}
	}

	// Load from a stream that goes on past the checkpoint, then save.
	r := bytes.NewReader(append(append([]byte(nil), ck...), "next"...))
	fresh := newEngine(t, cfg)
	if err := fresh.LoadCheckpoint(r); err != nil {
		t.Fatal(err)
	}
	if r.Len() != len("next") {
		t.Fatalf("LoadCheckpoint left %d bytes of the stream, want the 4 after the checkpoint", r.Len())
	}
	var again bytes.Buffer
	if err := fresh.SaveCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), ck) {
		t.Fatal("Save(Load(ck)) != ck")
	}
}

// TestSaveCheckpointAllocs: saving and loading stream the state objects
// through the optimizer's wire scratch and the header through the engine's,
// so what they allocate does not grow with the model — equal on 2 and 6
// layers — and is at most 2.
func TestSaveCheckpointAllocs(t *testing.T) {
	var save, load [2]float64
	for i, layers := range []int{2, 6} {
		e := newEngine(t, Config{Model: miniConfigWith(layers), GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapSSD}})
		trainK(t, e, 1)
		var buf bytes.Buffer
		if err := e.SaveCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		ck := append([]byte(nil), buf.Bytes()...)
		save[i] = testing.AllocsPerRun(10, func() {
			buf.Reset()
			if err := e.SaveCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
		})
		var r bytes.Reader
		load[i] = testing.AllocsPerRun(10, func() {
			r.Reset(ck)
			if err := e.LoadCheckpoint(&r); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocs per save %v, per load %v on 2 and 6 layers", save, load)
	if save[0] != save[1] || load[0] != load[1] || max(save[1], load[1]) > 2 {
		t.Fatalf("allocs per save %v, per load %v on 2 and 6 layers: want equal and ≤ 2", save, load)
	}
}

// TestTierString covers the enum.
func TestTierString(t *testing.T) {
	for _, tier := range []Tier{Recompute, SwapHost, SwapSSD} {
		if tier.String() == "" {
			t.Error("empty tier string")
		}
	}
	if Tier(99).String() == "" {
		t.Error("unknown tier should still render")
	}
}

// TestGradientAccumulation: micro-batched steps approximate one big-batch
// step — each micro-batch's samples contribute the same per-sample
// gradients (no cross-sample interaction in the model), so the averaged
// accumulation matches the same data trained sample-parallel, up to fp32
// summation order.
func TestGradientAccumulation(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized})
	cfg := e.cfg.Model
	t1, g1 := data(cfg, 21)
	t2, g2 := data(cfg, 22)
	loss, err := e.TrainStepAccum([]Batch{{t1, g1}, {t2, g2}})
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	if e.optimizer.Step() != 1 {
		t.Errorf("accumulated step count = %d, want 1", e.optimizer.Step())
	}
	if e.Stats().Steps != 1 {
		t.Errorf("stats steps = %d, want 1", e.Stats().Steps)
	}

	// The accumulated update differs from two separate steps (one vs two
	// optimizer applications) but not wildly: parameters stay finite and
	// close to a reference single step on t1.
	for _, p := range e.Model().Params() {
		for _, v := range p.W.Data {
			if v != v || v > 1e3 || v < -1e3 { // NaN or blowup
				t.Fatalf("parameter %s diverged: %v", p.Name, v)
			}
		}
	}
}

// TestGradientAccumulationLearns: accumulation still reduces loss on a
// fixed pair of micro-batches.
func TestGradientAccumulationLearns(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Serialized})
	cfg := e.cfg.Model
	t1, g1 := data(cfg, 31)
	t2, g2 := data(cfg, 31) // identical: a fixed effective batch
	var first, last float64
	for s := 0; s < 8; s++ {
		loss, err := e.TrainStepAccum([]Batch{{t1, g1}, {t2, g2}})
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("accumulated training did not learn: %.4f -> %.4f", first, last)
	}
}

// TestGradientAccumulationMatchesScaledStep: accumulating the SAME
// micro-batch twice equals a single step on it (mean of two identical
// gradients), bit-for-bit.
func TestGradientAccumulationMatchesScaledStep(t *testing.T) {
	cfg := miniConfig()
	tokens, targets := data(cfg, 41)

	accum := newEngine(t, Config{GradMode: agoffload.Optimized})
	if _, err := accum.TrainStepAccum([]Batch{{tokens, targets}, {tokens, targets}}); err != nil {
		t.Fatal(err)
	}
	single := newEngine(t, Config{GradMode: agoffload.Optimized})
	if _, err := single.TrainStep(tokens, targets); err != nil {
		t.Fatal(err)
	}
	a, b := paramsSnapshot(accum.Model()), paramsSnapshot(single.Model())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("duplicate-micro-batch accumulation diverged from single step")
		}
	}
}

// TestTrainStepAccumErrors covers the guard rails.
func TestTrainStepAccumErrors(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized})
	if _, err := e.TrainStepAccum(nil); err == nil {
		t.Error("empty micro-batch list accepted")
	}
	d := newEngine(t, Config{GradMode: agoffload.Optimized, DelayedUpdate: true})
	cfg := d.cfg.Model
	tokens, targets := data(cfg, 1)
	if _, err := d.TrainStepAccum([]Batch{{tokens, targets}}); err == nil {
		t.Error("accumulation with delayed update accepted")
	}
}

// TestLRSchedule: the schedule drives the optimizer's learning rate; with a
// zero-LR schedule parameters never move.
func TestLRSchedule(t *testing.T) {
	frozen := newEngine(t, Config{
		GradMode:   agoffload.Optimized,
		LRSchedule: func(int) float64 { return 0 },
	})
	before := paramsSnapshot(frozen.Model())
	trainK(t, frozen, 2)
	after := paramsSnapshot(frozen.Model())
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("zero learning rate still moved parameters")
		}
	}
}

// TestDropoutOffloadTransparency: with dropout enabled, offloaded training
// still matches recompute training bit-for-bit — the counter-based masks
// replay identically on both paths.
func TestDropoutOffloadTransparency(t *testing.T) {
	cfg := miniConfig()
	cfg.Dropout = 0.15
	ref := newEngine(t, Config{Model: cfg, GradMode: agoffload.Optimized})
	refLoss := trainK(t, ref, 3)

	off := newEngine(t, Config{
		Model: cfg, GradMode: agoffload.Optimized,
		Swap: map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD},
	})
	offLoss := trainK(t, off, 3)
	for i := range refLoss {
		if refLoss[i] != offLoss[i] {
			t.Fatalf("loss[%d] differs with dropout + offload: %v vs %v", i, refLoss[i], offLoss[i])
		}
	}
	a, b := paramsSnapshot(ref.Model()), paramsSnapshot(off.Model())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("dropout + offload training diverged from recompute")
		}
	}
}

// TestTornRestoreLatches: a device error in the middle of LoadCheckpoint
// leaves the groups before it restored and the rest not — state that matches
// no step. With the fault at every group in turn, the engine must refuse
// steps and checkpoints until a restore completes, then continue
// bit-identically to the run the checkpoint was taken from. A checkpoint with
// a mis-sized or missing group is refused before anything is written.
func TestTornRestoreLatches(t *testing.T) {
	boom := errors.New("boom")
	cfg := Config{Model: miniConfig(), GradMode: agoffload.Optimized, Swap: map[int]Tier{0: SwapSSD, 1: SwapHost}, Devices: 1}
	ref := newEngine(t, cfg)
	trainK(t, ref, 2)
	var buf bytes.Buffer
	if err := ref.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	wantLoss := trainFrom(t, ref, 2, 2)
	want := paramsSnapshot(ref.Model())
	tokens, targets := data(cfg.Model, 9)

	tornAt := map[string]bool{}
	for ops := 0; ; ops++ { // the device fails after ops more chunk writes
		e := newEngine(t, cfg)
		trainK(t, e, 3) // somewhere the checkpoint is not
		e.Stats()       // joins the write-back: the countdown starts at the restore's first chunk
		e.Array().InjectFaultAfter(0, ops, boom)
		err := e.LoadCheckpoint(bytes.NewReader(saved))
		e.Array().InjectFault(0, nil)
		if err == nil {
			break // the fault lay beyond the restore's last write
		}
		if !errors.Is(err, boom) {
			t.Fatalf("ops=%d: LoadCheckpoint = %v, want %v", ops, err, boom)
		}
		for _, g := range e.groups {
			if strings.Contains(err.Error(), "restore "+g.Name+":") {
				tornAt[g.Name] = true
			}
		}
		if _, err := e.TrainStep(tokens, targets); !errors.Is(err, boom) {
			t.Fatalf("ops=%d: TrainStep on a half-restored engine = %v, want a refusal naming %v", ops, err, boom)
		}
		var torn bytes.Buffer
		if err := e.SaveCheckpoint(&torn); !errors.Is(err, boom) || torn.Len() != 0 {
			t.Fatalf("ops=%d: SaveCheckpoint on a half-restored engine = %v (%d bytes written)", ops, err, torn.Len())
		}
		if err := e.LoadCheckpoint(bytes.NewReader(saved)); err != nil {
			t.Fatalf("ops=%d: the good restore: %v", ops, err)
		}
		if got := trainFrom(t, e, 2, 2); got[0] != wantLoss[0] || got[1] != wantLoss[1] {
			t.Fatalf("ops=%d: losses after the good restore %v, want %v", ops, got, wantLoss)
		}
		if !floatsEqual(paramsSnapshot(e.Model()), want) {
			t.Fatalf("ops=%d: parameters diverged after the good restore", ops)
		}
	}
	for _, g := range ref.groups {
		if !tornAt[g.Name] {
			t.Errorf("no fault landed in group %s's restore", g.Name)
		}
	}

	// Bad checkpoints. A spoiled header, a table of contents that is not this
	// model's, or a first group that is short or fails its checksum is refused
	// before anything is written: the engine stays as it was. A later group's
	// is found after the first write and latches like the device faults above.
	e, twin := newEngine(t, cfg), newEngine(t, cfg)
	trainK(t, e, 1)
	trainK(t, twin, 1)
	var own bytes.Buffer
	if err := e.SaveCheckpoint(&own); err != nil {
		t.Fatal(err)
	}
	untouched := func(what string) {
		t.Helper()
		var now bytes.Buffer
		if err := e.SaveCheckpoint(&now); err != nil || !bytes.Equal(now.Bytes(), own.Bytes()) ||
			!floatsEqual(paramsSnapshot(e.Model()), paramsSnapshot(twin.Model())) {
			t.Fatalf("%s: the refused checkpoint changed the engine (save: %v)", what, err)
		}
	}
	latched := func(what string) {
		t.Helper()
		if e.optErr == nil {
			t.Fatalf("%s: a restore that failed after its first write did not latch", what)
		}
		var torn bytes.Buffer
		if _, err := e.TrainStep(tokens, targets); err == nil {
			t.Fatalf("%s: TrainStep on a half-restored engine succeeded", what)
		}
		if err := e.SaveCheckpoint(&torn); err == nil || torn.Len() != 0 {
			t.Fatalf("%s: SaveCheckpoint on a half-restored engine = %v (%d bytes written)", what, err, torn.Len())
		}
		if err := e.LoadCheckpoint(bytes.NewReader(own.Bytes())); err != nil {
			t.Fatalf("%s: the good restore: %v", what, err)
		}
		untouched(what + ", restored")
	}
	header, payload := ckptLayout(e)
	for i := 0; i < header; i++ {
		ck := append([]byte(nil), saved...)
		ck[i] ^= 0x10
		if err := e.LoadCheckpoint(bytes.NewReader(ck)); err == nil {
			t.Fatalf("header byte %d flipped: accepted", i)
		}
		untouched(fmt.Sprintf("header byte %d flipped", i))
	}
	// The last group, one parameter short in the table of contents; and gone
	// from it and from the payloads. Both headers are resealed, so they fail
	// on their contents rather than on their checksums.
	last := ref.groups[len(ref.groups)-1]
	entry := header - 4 - (8 + 2 + len(last.Name))
	short := append([]byte(nil), saved...)
	binary.LittleEndian.PutUint64(short[entry:], uint64(last.NumParams()-1))
	reseal(short, header)
	missing := append([]byte(nil), saved[:entry+4]...)
	binary.LittleEndian.PutUint32(missing[12:], uint32(len(ref.groups)-1))
	reseal(missing, entry+4)
	missing = append(missing, saved[header:payload[len(payload)-1]]...)
	for name, ck := range map[string][]byte{"short group": short, "missing group": missing} {
		if err := e.LoadCheckpoint(bytes.NewReader(ck)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		untouched(name)
	}
	for i, g := range ref.groups {
		flipped := append([]byte(nil), saved...)
		flipped[payload[i]+5] ^= 1
		for name, ck := range map[string][]byte{"flipped payload byte": flipped, "truncated payload": saved[:payload[i]+5]} {
			what := fmt.Sprintf("%s in %s", name, g.Name)
			err := e.LoadCheckpoint(bytes.NewReader(ck))
			if err == nil || !strings.Contains(err.Error(), "restore "+g.Name+":") {
				t.Fatalf("%s: LoadCheckpoint = %v, want a refusal naming the group", what, err)
			}
			if i == 0 {
				untouched(what)
			} else {
				latched(what)
			}
		}
	}
	trainFrom(t, e, 1, 1)
	trainFrom(t, twin, 1, 1)
	if !floatsEqual(paramsSnapshot(e.Model()), paramsSnapshot(twin.Model())) {
		t.Fatal("the refused checkpoints changed the engine")
	}
}

// ckptFixed is the checkpoint header's fixed part: magic, format, group count
// and the two steps. Every checksum in a checkpoint is a CRC-32C.
const ckptFixed = 8 + 4 + 4 + 8 + 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ckptLayout is where a checkpoint of e's model puts things: the header's
// length, table of contents and checksum included, and where each group's
// state object starts.
func ckptLayout(e *Engine) (header int, payload []int) {
	header = ckptFixed + 4
	for _, g := range e.groups {
		header += 8 + 2 + len(g.Name)
	}
	off := header
	for _, g := range e.groups {
		payload = append(payload, off)
		off += 12*g.NumParams() + 4
	}
	return header, payload
}

// reseal rewrites the checksum of a header of the given length to match its
// contents, so a test's edit to them is refused on its merits.
func reseal(ck []byte, header int) {
	binary.LittleEndian.PutUint32(ck[header-4:], crc32.Checksum(ck[:header-4], castagnoli))
}

// TestDropoutCheckpointResume: the model's forward-pass counter rides in
// the checkpoint, so dropout masks line up after resume.
func TestDropoutCheckpointResume(t *testing.T) {
	cfg := miniConfig()
	cfg.Dropout = 0.2
	straight := newEngine(t, Config{Model: cfg, GradMode: agoffload.Optimized})
	trainK(t, straight, 4)
	want := paramsSnapshot(straight.Model())

	first := newEngine(t, Config{Model: cfg, GradMode: agoffload.Optimized})
	trainK(t, first, 2)
	var buf bytes.Buffer
	if err := first.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed := newEngine(t, Config{Model: cfg, GradMode: agoffload.Optimized})
	if err := resumed.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for s := 2; s < 4; s++ {
		tokens, targets := data(cfg, int64(s))
		if _, err := resumed.TrainStep(tokens, targets); err != nil {
			t.Fatal(err)
		}
	}
	got := paramsSnapshot(resumed.Model())
	for i := range want {
		if want[i] != got[i] {
			t.Fatal("dropout resume diverged (forward-pass counter not restored?)")
		}
	}
}

// TestStaticLossScaling: gradients travel at scale x and the optimizer
// unscales, so training still converges; the scale is visible via
// LossScale.
func TestStaticLossScaling(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized, LossScale: 1024})
	if e.LossScale() != 1024 {
		t.Fatalf("LossScale = %v", e.LossScale())
	}
	tokens, targets := data(e.cfg.Model, 51)
	var first, last float64
	for s := 0; s < 10; s++ {
		loss, err := e.TrainStep(tokens, targets)
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("scaled training did not learn: %.4f -> %.4f", first, last)
	}
	for _, p := range e.Model().Params() {
		for _, v := range p.W.Data {
			if v != v {
				t.Fatal("NaN parameter under static scaling")
			}
		}
	}
}

// TestDynamicLossScalingRecovers: an absurd initial scale overflows the
// fp16 gradients; the scaler halves until steps apply, and the skipped
// steps do not advance the optimizer.
func TestDynamicLossScalingRecovers(t *testing.T) {
	e := newEngine(t, Config{
		GradMode:         agoffload.Serialized,
		LossScale:        1 << 24, // guaranteed overflow at first
		DynamicLossScale: true,
	})
	tokens, targets := data(e.cfg.Model, 52)
	for s := 0; s < 20; s++ {
		if _, err := e.TrainStep(tokens, targets); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.SkippedSteps == 0 {
		t.Error("no overflow skips despite a 2^24 initial scale")
	}
	if e.LossScale() >= 1<<24 {
		t.Errorf("scale did not shrink: %v", e.LossScale())
	}
	if applied := e.optimizer.Step(); applied != 20-st.SkippedSteps {
		t.Errorf("optimizer applied %d steps, want %d (20 - %d skipped)",
			applied, 20-st.SkippedSteps, st.SkippedSteps)
	}
	// Parameters stay finite through the overflow storm.
	for _, p := range e.Model().Params() {
		for _, v := range p.W.Data {
			if v != v {
				t.Fatal("NaN parameter after recovery")
			}
		}
	}
}

// TestDynamicScalingRequiresSerialized: the guard rails hold.
func TestDynamicScalingRequiresSerialized(t *testing.T) {
	_, err := New(Config{Model: miniConfig(), GradMode: agoffload.Optimized, DynamicLossScale: true})
	if err == nil {
		t.Error("dynamic scaling with overlapped handlers accepted")
	}
	d := newEngine(t, Config{GradMode: agoffload.Serialized, DynamicLossScale: true})
	t1, g1 := data(d.cfg.Model, 1)
	if _, err := d.TrainStepAccum([]Batch{{t1, g1}}); err == nil {
		t.Error("accumulation with dynamic scaling accepted")
	}
}

// TestEvalLoss: evaluation neither updates parameters nor advances the
// dropout counter, and matches the training loss at the same parameters.
func TestEvalLoss(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized})
	tokens, targets := data(e.cfg.Model, 61)
	before := paramsSnapshot(e.Model())
	evalLoss, err := e.EvalLoss(tokens, targets)
	if err != nil {
		t.Fatal(err)
	}
	after := paramsSnapshot(e.Model())
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("EvalLoss changed parameters")
		}
	}
	trainLoss, err := e.TrainStep(tokens, targets)
	if err != nil {
		t.Fatal(err)
	}
	if evalLoss != trainLoss {
		t.Fatalf("eval loss %v != training loss %v at identical parameters", evalLoss, trainLoss)
	}
}

// TestEngineConfigFuzz: random valid configurations train one step without
// error and produce a finite loss.
func TestEngineConfigFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		heads := 1 + rng.Intn(3)
		cfg := Config{
			Model: nn.Config{
				Vocab:   8 + rng.Intn(40),
				Seq:     2 + rng.Intn(8),
				Hidden:  heads * (4 + 4*rng.Intn(3)),
				Heads:   heads,
				Layers:  1 + rng.Intn(4),
				Batch:   1 + rng.Intn(3),
				Seed:    seed,
				Dropout: []float64{0, 0, 0.1}[rng.Intn(3)],
			},
			GradMode:  []agoffload.Mode{agoffload.Serialized, agoffload.Naive, agoffload.Optimized}[rng.Intn(3)],
			Devices:   1 + rng.Intn(4),
			LossScale: []float64{0, 0, 256}[rng.Intn(3)],
		}
		swap := map[int]Tier{}
		for b := 0; b < cfg.Model.Layers; b++ {
			swap[b] = Tier(rng.Intn(3))
		}
		cfg.Swap = swap
		e, err := New(cfg)
		if err != nil {
			return false
		}
		defer e.Close()
		tokens, targets := data(cfg.Model, seed)
		loss, err := e.TrainStep(tokens, targets)
		if err != nil {
			return false
		}
		return loss > 0 && !math.IsNaN(loss) && !math.IsInf(loss, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestClipGroupNorm: a tiny clip norm shrinks the optimizer moments and
// therefore the realized update, relative to unclipped training on the
// same data.
func TestClipGroupNorm(t *testing.T) {
	run := func(clip float64) []float32 {
		e := newEngine(t, Config{GradMode: agoffload.Optimized, ClipGroupNorm: clip})
		tokens, targets := data(e.cfg.Model, 71)
		if _, err := e.TrainStep(tokens, targets); err != nil {
			t.Fatal(err)
		}
		return paramsSnapshot(e.Model())
	}
	init := func() []float32 {
		e := newEngine(t, Config{GradMode: agoffload.Optimized})
		return paramsSnapshot(e.Model())
	}
	start := init()
	unclipped := run(0)
	clipped := run(1e-4)
	move := func(after []float32) float64 {
		var sq float64
		for i := range after {
			d := float64(after[i] - start[i])
			sq += d * d
		}
		return sq
	}
	if move(clipped) >= move(unclipped) {
		t.Errorf("clipping did not shrink the update: %v vs %v", move(clipped), move(unclipped))
	}
	if move(clipped) == 0 {
		t.Error("clipping zeroed the update entirely")
	}
}

// TestPipelineEquivalenceMatrix: the activation I/O window changes timing
// only — training is bit-identical to an engine that swaps nothing (it
// recomputes every block, so it shares no window code), whether the window
// runs with no overlap (the oracleSyncIO hook), at depth 1 or at depth 3,
// across swap tier mixes (pure SSD, and SSD interleaved with pinned host
// blobs from the shared buffer pool) and worker-pool widths (serial and
// parallel codecs).
func TestPipelineEquivalenceMatrix(t *testing.T) {
	swaps := []struct {
		name string
		swap map[int]Tier
	}{
		{"all-ssd", map[int]Tier{0: SwapSSD, 1: SwapSSD, 2: SwapSSD}},
		{"mixed", map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD}},
	}
	variants := []struct {
		name string
		cfg  func(Config) Config
	}{
		{"syncio", func(c Config) Config { c.oracleSyncIO = true; return c }},
		{"depth1", func(c Config) Config { c.PipelineDepth = 1; return c }},
		{"depth3", func(c Config) Config { c.PipelineDepth = 3; return c }},
	}
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	for _, threads := range []int{1, 4} {
		tensor.SetParallelism(threads)
		ref := newEngine(t, Config{GradMode: agoffload.Optimized})
		refLoss := trainK(t, ref, 3)
		refParams := paramsSnapshot(ref.Model())
		for _, sc := range swaps {
			base := Config{GradMode: agoffload.Optimized, Swap: sc.swap}
			for _, v := range variants {
				t.Run(fmt.Sprintf("%s/%s/threads=%d", sc.name, v.name, threads), func(t *testing.T) {
					e := newEngine(t, v.cfg(base))
					loss := trainK(t, e, 3)
					for i := range refLoss {
						if refLoss[i] != loss[i] {
							t.Fatalf("loss[%d] differs from the recompute-only reference: %v vs %v", i, refLoss[i], loss[i])
						}
					}
					params := paramsSnapshot(e.Model())
					for i := range refParams {
						if refParams[i] != params[i] {
							t.Fatal("pipeline changed training values")
						}
					}
					pipelineIdle(t, e)
				})
			}
		}
	}
}
