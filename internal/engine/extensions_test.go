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
	"ratel/internal/nvme"
	"ratel/internal/opt"
	"ratel/internal/tensor"
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

// TestDelayedUpdateMatchesPlainReference pins the delayed trajectory
// exactly: over a mixed swap layout, six steps and FlushDelayed, a
// DelayedUpdate engine's losses and parameters are the plain reference's
// where step k applies step k-1's gradients — at a constant learning rate
// and under a schedule, which the delayed update applies at its own step,
// and on a model with a resident set, whose late update submits the resident
// pieces first.
func TestDelayedUpdateMatchesPlainReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched opt.Schedule
		model nn.Config
		swap  map[int]Tier
	}{
		{"constant-lr", nil, miniConfig(), map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD}},
		{"warmup-cosine", opt.WarmupCosine(opt.DefaultAdam().LR, 2, 6, 1e-5), miniConfig(), map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD}},
		{"resident", nil, residentConfig(), map[int]Tier{0: SwapSSD, 1: SwapHost}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Model: tc.model, GradMode: agoffload.Optimized, DelayedUpdate: true, LRSchedule: tc.sched, Swap: tc.swap}
			e, ref := newEngine(t, cfg), newPlainRef(t, cfg)
			var loss, refLoss []float64
			for s := 0; s < 6; s++ {
				b := batchesAt(e.cfg.Model, s, false)
				l, err := e.TrainStep(b[0].Tokens, b[0].Targets)
				if err != nil {
					t.Fatal(err)
				}
				loss, refLoss = append(loss, l), append(refLoss, ref.delayedStep(b[0]))
			}
			if err := e.FlushDelayed(); err != nil {
				t.Fatal(err)
			}
			ref.flush()
			sameTrajectory(t, tc.name, refLoss, loss, paramsSnapshot(ref.model), paramsSnapshot(e.Model()))
			if e.optimizer.Step() != ref.opt.Step() || e.optimizer.LR() != ref.opt.LR() {
				t.Fatalf("optimizer at step %d, lr %v; reference at step %d, lr %v", e.optimizer.Step(), e.optimizer.LR(), ref.opt.Step(), ref.opt.LR())
			}
		})
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

// optStreamModel is the benchmark's opt_stream model, whose state window
// holds five of its twelve buffers resident.
func optStreamModel() nn.Config {
	return nn.Config{Vocab: 32, Seq: 64, Hidden: 64, Heads: 4, Layers: 4, Batch: 2, Seed: 1}
}

// TestCheckpointResume: save after 3 steps, restore into a fresh engine,
// continue — bit-identical to an uninterrupted run, in every gradient mode
// and with activations swapped to both tiers, and on a model with a
// resident set. A delayed update holds one step's gradients, which a
// checkpoint has no place for, so its save is refused and writes nothing.
// An older checkpoint restored into an engine whose resident pieces hold
// later, unflushed updates replaces them: the engine then saves the
// checkpoint's bytes, and trains and saves like the uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	swapped := map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"serialized", Config{GradMode: agoffload.Serialized}},
		{"naive", Config{GradMode: agoffload.Naive}},
		{"optimized", Config{GradMode: agoffload.Optimized}},
		{"optimized swapped", Config{GradMode: agoffload.Optimized, Swap: swapped, PipelineDepth: 1}},
		{"delayed update", Config{GradMode: agoffload.Optimized, DelayedUpdate: true}},
		{"resident", Config{Model: optStreamModel(), GradMode: agoffload.Optimized}},
		{"resident swapped", Config{Model: optStreamModel(), GradMode: agoffload.Optimized, Swap: swapped}},
	} {
		t.Run(c.name, func(t *testing.T) {
			first := newEngine(t, c.cfg)
			if _, resident, _ := first.states.Window(); (resident > 0) != strings.HasPrefix(c.name, "resident") {
				t.Fatalf("%d resident state buffers", resident)
			}
			trainK(t, first, 3)
			var buf bytes.Buffer
			err := first.SaveCheckpoint(&buf)
			if c.cfg.DelayedUpdate {
				if err == nil || !strings.Contains(err.Error(), "FlushDelayed") || buf.Len() != 0 {
					t.Fatalf("save with pending delayed gradients = %v after %d bytes, want a refusal naming FlushDelayed", err, buf.Len())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			straight := newEngine(t, c.cfg)
			trainK(t, straight, 5)
			resumed := newEngine(t, c.cfg)
			if err := resumed.LoadCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			trainFrom(t, resumed, 3, 2) // the same batches 3 and 4
			want, got := paramsSnapshot(straight.Model()), paramsSnapshot(resumed.Model())
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("resumed run diverged from uninterrupted run at param %d", i)
				}
			}
		})
	}
	t.Run("older checkpoint over dirty resident state", func(t *testing.T) {
		cfg := Config{Model: optStreamModel(), GradMode: agoffload.Optimized,
			SSD: &nvme.Config{ReadBW: 33 << 20, WriteBW: 19 << 20, StripeSize: 64 << 10}}
		e, straight := newEngine(t, cfg), newEngine(t, cfg)
		want := trainK(t, straight, 4)
		var older, wantCkpt bytes.Buffer
		if err := straight.SaveCheckpoint(&wantCkpt); err != nil {
			t.Fatal(err)
		}
		trainK(t, e, 2)
		if err := e.SaveCheckpoint(&older); err != nil {
			t.Fatal(err)
		}
		// Steps 3 to 5 leave their resident updates unflushed: only a join
		// writes them back, and none has run since.
		trainFrom(t, e, 2, 3)
		if e.states.ResidentBytes() == 0 {
			t.Fatal("nothing resident: the restore replaces no resident state")
		}
		if err := e.LoadCheckpoint(bytes.NewReader(older.Bytes())); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := e.SaveCheckpoint(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), older.Bytes()) {
			t.Fatal("the engine restored over dirty resident state does not save the checkpoint it loaded")
		}
		sameTrajectory(t, "restored over dirty resident state", want[2:], trainFrom(t, e, 2, 2), paramsSnapshot(straight.Model()), paramsSnapshot(e.Model()))
		var got bytes.Buffer
		if err := e.SaveCheckpoint(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantCkpt.Bytes()) {
			t.Fatal("two steps after the restore, the checkpoint differs from the uninterrupted run's")
		}
	})
}

// TestCheckpointArrayBatchRoundTrip: on the benchmark's opt_stream model and
// throttled array, where New, SaveCheckpoint and LoadCheckpoint each move a
// group's state pieces as one batch on the lanes, every checkpoint is the
// plain reference's bytes, and a save → load → train round trip is
// bit-identical to training straight through.
func TestCheckpointArrayBatchRoundTrip(t *testing.T) {
	cfg := Config{Model: optStreamModel(), GradMode: agoffload.Optimized,
		SSD: &nvme.Config{ReadBW: 33 << 20, WriteBW: 19 << 20, StripeSize: 64 << 10}}
	first, ref := newEngine(t, cfg), newPlainRef(t, cfg)
	pieces := 0
	for _, g := range first.groups {
		pieces = max(pieces, len(first.optimizer.StoredBytes(g.Name)))
	}
	if peak := first.Array().Stats().PeakWritesInFlight; pieces < 2 || peak != int64(pieces) {
		t.Fatalf("New had %d state writes in flight at most, want every piece of the largest group's %d", peak, pieces)
	}
	trainK(t, first, 2)
	ref.train(0, 2)
	var ck bytes.Buffer
	if err := first.SaveCheckpoint(&ck); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck.Bytes(), ref.checkpoint()) {
		t.Fatal("the saved checkpoint differs from the reference's")
	}
	resumed := newEngine(t, cfg)
	if err := resumed.LoadCheckpoint(&ck); err != nil {
		t.Fatal(err)
	}
	sameCheckpoint(t, "restored", resumed, ref)
	sameTrajectory(t, "resumed", ref.train(2, 2), trainFrom(t, resumed, 2, 2), paramsSnapshot(ref.model), paramsSnapshot(resumed.Model()))
	sameCheckpoint(t, "trained after the restore", resumed, ref)
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

// TestCheckpointFormat2Fixture pins format 2 by bytes another engine wrote:
// testdata/format2.ckpt was saved by the engine that stored each group's
// state as one object, after three TrainSteps of the model below on the
// batches of data(cfg, 0..2), and its next three losses were
// format2NextLosses. This engine stores the block's 9,772 params as two
// pieces; it loads the file, saves it back to the same bytes, and trains
// the next three steps to the same bits.
func TestCheckpointFormat2Fixture(t *testing.T) {
	format2NextLosses := []uint64{0x4004c2d0037474f4, 0x4004db8764f3916b, 0x4004b2d57fafb17a}
	ck, err := os.ReadFile("testdata/format2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, Config{Model: nn.Config{Vocab: 13, Seq: 6, Hidden: 28, Heads: 2, Layers: 1, Batch: 2, Seed: 77},
		GradMode: agoffload.Optimized})
	if err := e.LoadCheckpoint(bytes.NewReader(ck)); err != nil {
		t.Fatal(err)
	}
	if err := e.Array().ReadInto("states/block0/state/1", make([]byte, e.optimizer.StoredBytes("block0")[1])); err != nil {
		t.Fatalf("block0's state is not two pieces: %v", err)
	}
	var again bytes.Buffer
	if err := e.SaveCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), ck) {
		t.Fatal("Save(Load(format2.ckpt)) is not the file's bytes")
	}
	for i, loss := range trainFrom(t, e, 3, 3) {
		if math.Float64bits(loss) != format2NextLosses[i] {
			t.Fatalf("step %d after the restore: loss %#016x, the saving engine's %#016x", 3+i, math.Float64bits(loss), format2NextLosses[i])
		}
	}
}

// TestCheckpointLayout pins the format: a checkpoint is exactly the header
// (fixed fields, table of contents, checksum) and each group's decoded state
// (P32 | M | V) followed by its CRC-32C; loading reads exactly that many
// bytes and no more; and saving what was loaded gives the same bytes.
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
		size += (8 + 2 + len(g.Name)) + opt.StateBytes(g.NumParams(), opt.Full) + 4
	}
	if len(ck) != size || payload[len(payload)-1]+opt.StateBytes(e.groups[len(e.groups)-1].NumParams(), opt.Full)+4 != size {
		t.Fatalf("checkpoint is %d bytes, want header %d + Σ(entry + 12n + 4) = %d", len(ck), header, size)
	}
	if string(ck[:8]) != ckptMagic || binary.LittleEndian.Uint32(ck[8:]) != 2 ||
		binary.LittleEndian.Uint64(ck[16:]) != 2 || binary.LittleEndian.Uint64(ck[24:]) != e.model.Step() {
		t.Fatalf("fixed header % x", ck[:ckptFixed])
	}
	for i, g := range e.groups {
		obj := decodedState(t, e, g)
		at := payload[i]
		if !bytes.Equal(ck[at:at+len(obj)], obj) {
			t.Fatalf("%s: payload is not the group's decoded state", g.Name)
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

// decodedState is g's state as the optimizer decodes it from the array: P32 |
// M | V as raw little-endian fp32.
func decodedState(t *testing.T, e *Engine, g nn.ParamGroup) []byte {
	t.Helper()
	p32, m, v, err := e.optimizer.State(g)
	if err != nil {
		t.Fatal(err)
	}
	var obj []byte
	for _, plane := range [][]float32{p32, m, v} {
		for _, x := range plane {
			obj = binary.LittleEndian.AppendUint32(obj, math.Float32bits(x))
		}
	}
	return obj
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
		off += opt.StateBytes(g.NumParams(), opt.Full) + 4
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

// TestEvalLoss: evaluation neither updates parameters nor advances the
// dropout counter, and matches the training loss at the same parameters.
func TestEvalLoss(t *testing.T) {
	e := newEngine(t, Config{GradMode: agoffload.Optimized})
	tokens, targets := data(e.cfg.Model, 61)
	before := paramsSnapshot(e.Model())
	evalLoss, err := e.Model().EvalLoss(tokens, targets)
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
			GradMode: []agoffload.Mode{agoffload.Serialized, agoffload.Naive, agoffload.Optimized}[rng.Intn(3)],
			Devices:  1 + rng.Intn(4),
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

// TestCorruptStatePieceLatches: a state piece the array returns corrupt —
// every byte 0xff, an escape count far over any table's capacity, or, in the
// narrow form, one of its M or V tables with a count over its capacity,
// indices that do not rise or leave the piece, or a base whose window leaves
// the byte — is refused by the next step's Adam stage before anything is
// decoded: the step returns the refusal naming the piece, the failure
// latches (steps and saves refuse), and restoring a checkpoint continues
// bit-identically to a run that never saw the piece.
func TestCorruptStatePieceLatches(t *testing.T) {
	cfg := Config{Model: miniConfig(), GradMode: agoffload.Optimized}
	// The narrow form's tables end the object: Δ's (count, records), then M's
	// and V's (count, base, records), each with room for ⌈n/128⌉ records.
	type table struct{ count, base, recs int }
	narrowTables := func(size, n int) map[string]table {
		c := (n + 127) / 128
		v := size - (8 + 8*c)
		m := v - (8 + 8*c)
		return map[string]table{"M": {m, m + 4, m + 8}, "V": {v, v + 4, v + 8}}
	}
	cases := map[string]func(obj []byte, tb table, plane string, n int){
		"every byte 0xff": func(obj []byte, _ table, _ string, _ int) {
			for i := range obj {
				obj[i] = 0xff
			}
		},
		"count over capacity": func(obj []byte, tb table, _ string, n int) {
			binary.LittleEndian.PutUint32(obj[tb.count:], uint32((n+127)/128+1))
		},
		"indices not rising": func(obj []byte, tb table, _ string, _ int) {
			binary.LittleEndian.PutUint32(obj[tb.count:], 2)
			binary.LittleEndian.PutUint32(obj[tb.recs:], 3)
			binary.LittleEndian.PutUint32(obj[tb.recs+8:], 3)
		},
		"index past the piece": func(obj []byte, tb table, _ string, n int) {
			binary.LittleEndian.PutUint32(obj[tb.count:], 1)
			binary.LittleEndian.PutUint32(obj[tb.recs:], uint32(n))
		},
		"base past the byte": func(obj []byte, tb table, plane string, _ int) {
			binary.LittleEndian.PutUint32(obj[tb.base:], map[string]uint32{"M": 0x7a, "V": 0xf2}[plane])
		},
	}
	for name, corrupt := range cases {
		for _, plane := range []string{"M", "V"} {
			sub := name + "/" + plane
			if name == "every byte 0xff" {
				if plane == "V" {
					continue
				}
				sub = name
			}
			t.Run(sub, func(t *testing.T) {
				corruptStatePiece(t, cfg, func(obj []byte, n int) {
					if name != "every byte 0xff" && len(obj) != opt.StateBytes(n, 0) {
						t.Fatalf("the piece is %d bytes, not in the narrow form's %d", len(obj), opt.StateBytes(n, 0))
					}
					corrupt(obj, narrowTables(len(obj), n)[plane], plane, n)
				})
			})
		}
	}
}

// corruptStatePiece trains two engines of cfg two steps, corrupts the stored
// state of the second's head with corrupt (its object and params), and
// checks that the next step refuses it by name, the failure latches, and a
// restore continues as the first engine does.
func corruptStatePiece(t *testing.T, cfg Config, corrupt func(obj []byte, n int)) {
	ref, e := newEngine(t, cfg), newEngine(t, cfg)
	for _, x := range []*Engine{ref, e} {
		trainK(t, x, 2)
	}
	var ckpt bytes.Buffer
	if err := e.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	g := e.groups[len(e.groups)-1] // the head: one piece, stored narrow
	key := "states/" + g.Name + "/state/0"
	obj := make([]byte, e.optimizer.StoredBytes(g.Name)[0])
	if err := e.Array().ReadInto(key, obj); err != nil {
		t.Fatal(err)
	}
	corrupt(obj, g.NumParams())
	if err := e.Array().Put(key, obj); err != nil {
		t.Fatal(err)
	}
	tokens, targets := data(cfg.Model, 2)
	if _, err := e.TrainStep(tokens, targets); err == nil || !strings.Contains(err.Error(), key) {
		t.Fatalf("TrainStep over the corrupt piece = %v, want a refusal naming it", err)
	}
	if _, err := e.TrainStep(tokens, targets); err == nil {
		t.Fatal("TrainStep after the refusal succeeded: the failure did not latch")
	}
	var torn bytes.Buffer
	if err := e.SaveCheckpoint(&torn); err == nil || torn.Len() != 0 {
		t.Fatalf("SaveCheckpoint after the refusal = %v with %d bytes written", err, torn.Len())
	}
	if err := e.LoadCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	loss, want := trainFrom(t, e, 2, 2), trainFrom(t, ref, 2, 2)
	sameTrajectory(t, "restored", want, loss, paramsSnapshot(ref.Model()), paramsSnapshot(e.Model()))
}
