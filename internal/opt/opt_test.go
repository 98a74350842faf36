package opt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/tensor"
)

func TestAdamStepMatchesReference(t *testing.T) {
	// One step from zero moments: m = (1-b1)g, v = (1-b2)g², update =
	// lr·g/(|g|+eps) ≈ lr·sign(g).
	cfg := DefaultAdam()
	p := []float32{1, -2, 3}
	m := make([]float32, 3)
	v := make([]float32, 3)
	g := []float32{0.5, -0.25, 0.125}
	if err := AdamStep(cfg, 1, p, m, v, g); err != nil {
		t.Fatal(err)
	}
	want := []float32{1 - 1e-3, -2 + 1e-3, 3 - 1e-3}
	for i := range want {
		if math.Abs(float64(p[i]-want[i])) > 1e-6 {
			t.Errorf("p[%d] = %v, want ~%v", i, p[i], want[i])
		}
	}
}

func TestAdamStepErrors(t *testing.T) {
	cfg := DefaultAdam()
	if err := AdamStep(cfg, 1, []float32{1}, []float32{0}, []float32{0}, []float32{0, 0}); err == nil {
		t.Error("mismatched sizes accepted")
	}
	if err := AdamStep(cfg, 0, []float32{1}, []float32{0}, []float32{0}, []float32{0}); err == nil {
		t.Error("step 0 accepted")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = (x-3)² with Adam; x should approach 3.
	cfg := DefaultAdam()
	cfg.LR = 0.1
	p := []float32{-5}
	m := make([]float32, 1)
	v := make([]float32, 1)
	for step := 1; step <= 500; step++ {
		g := []float32{2 * (p[0] - 3)}
		if err := AdamStep(cfg, step, p, m, v, g); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(float64(p[0])-3) > 0.05 {
		t.Errorf("Adam did not converge: x = %v, want ~3", p[0])
	}
}

func buildModel(t *testing.T) *nn.Model {
	t.Helper()
	m, err := nn.NewModel(nn.Config{Vocab: 11, Seq: 4, Hidden: 8, Heads: 2, Layers: 2, Batch: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func setGrads(m *nn.Model, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.Params() {
		for i := range p.G.Data {
			p.G.Data[i] = float32(rng.NormFloat64())
		}
	}
}

// TestOutOfCoreEqualsInMemory: the chunked, store-backed optimizer produces
// bit-identical parameters to a monolithic in-memory Adam over the same
// gradients, for several steps.
func TestOutOfCoreEqualsInMemory(t *testing.T) {
	modelA := buildModel(t)
	modelB := buildModel(t)

	ooc := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "test")
	for _, g := range modelA.ParamGroups() {
		if err := ooc.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	// Reference: flat in-memory state per group, same G16 rounding.
	type refState struct{ p, m, v []float32 }
	ref := map[string]*refState{}
	for _, g := range modelB.ParamGroups() {
		flat := make([]float32, 0, g.NumParams())
		for _, p := range g.Params {
			flat = append(flat, p.W.Data...)
		}
		ref[g.Name] = &refState{p: flat, m: make([]float32, len(flat)), v: make([]float32, len(flat))}
		for _, p := range g.Params {
			p.W.RoundFP16InPlace()
		}
	}

	for step := 1; step <= 3; step++ {
		setGrads(modelA, int64(step))
		setGrads(modelB, int64(step))
		ooc.BeginStep()
		for _, g := range modelA.ParamGroups() {
			if err := ooc.UpdateGroup(g); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range modelB.ParamGroups() {
			st := ref[g.Name]
			grad := make([]float32, 0, len(st.p))
			for _, p := range g.Params {
				for _, gv := range p.G.Data {
					grad = append(grad, tensor.RoundFP16(gv))
				}
			}
			if err := AdamStep(DefaultAdam(), step, st.p, st.m, st.v, grad); err != nil {
				t.Fatal(err)
			}
			off := 0
			for _, p := range g.Params {
				for i := range p.W.Data {
					p.W.Data[i] = tensor.RoundFP16(st.p[off])
					off++
				}
			}
		}
	}

	pa, pb := modelA.Params(), modelB.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("param %s[%d] differs: %v vs %v",
					pa[i].Name, j, pa[i].W.Data[j], pb[i].W.Data[j])
			}
		}
	}
	if ooc.Step() != 3 {
		t.Errorf("step = %d, want 3", ooc.Step())
	}
}

// TestOutOfCoreOverNVMe: the same optimizer runs over the real striped
// array backend.
func TestOutOfCoreOverNVMe(t *testing.T) {
	a, err := nvme.Open(nvme.Config{Devices: 3, StripeSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	m := buildModel(t)
	ooc := NewOutOfCoreAdam(a, DefaultAdam(), "model")
	for _, g := range m.ParamGroups() {
		if err := ooc.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	setGrads(m, 1)
	ooc.BeginStep()
	for _, g := range m.ParamGroups() {
		if err := ooc.UpdateGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	// Masters exist and differ from the fp16 working copies only by
	// rounding.
	g0 := m.ParamGroups()[0]
	masters, err := ooc.MasterWeights(g0.Name, g0.NumParams())
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, p := range g0.Params {
		for i := range p.W.Data {
			if p.W.Data[i] != tensor.RoundFP16(masters[off]) {
				t.Fatalf("P16 != fp16(P32) at %s[%d]", p.Name, i)
			}
			off++
		}
	}
}

func TestUpdateBeforeBeginStepFails(t *testing.T) {
	m := buildModel(t)
	ooc := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "x")
	g := m.ParamGroups()[0]
	if err := ooc.InitGroup(g); err != nil {
		t.Fatal(err)
	}
	if err := ooc.UpdateGroup(g); err == nil {
		t.Error("UpdateGroup before BeginStep accepted")
	}
}

func TestUpdateUninitializedGroupFails(t *testing.T) {
	m := buildModel(t)
	ooc := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "x")
	ooc.BeginStep()
	if err := ooc.UpdateGroup(m.ParamGroups()[0]); err == nil {
		t.Error("update of uninitialized group accepted")
	}
}

// TestAdamStateInvariant: v stays non-negative for any gradient sequence.
func TestAdamStateInvariant(t *testing.T) {
	f := func(gs []float32) bool {
		if len(gs) == 0 {
			return true
		}
		cfg := DefaultAdam()
		p := make([]float32, len(gs))
		m := make([]float32, len(gs))
		v := make([]float32, len(gs))
		for step := 1; step <= 3; step++ {
			if err := AdamStep(cfg, step, p, m, v, gs); err != nil {
				return false
			}
		}
		for _, x := range v {
			if x < 0 || math.IsNaN(float64(x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWeightDecayAppliesDecoupled: AdamW's decay shrinks parameters even
// with zero gradients.
func TestWeightDecayAppliesDecoupled(t *testing.T) {
	cfg := DefaultAdam()
	cfg.WeightDecay = 0.1
	p := []float32{10}
	m := make([]float32, 1)
	v := make([]float32, 1)
	if err := AdamStep(cfg, 1, p, m, v, []float32{0}); err != nil {
		t.Fatal(err)
	}
	want := float32(10 - 1e-3*0.1*10)
	if math.Abs(float64(p[0]-want)) > 1e-6 {
		t.Errorf("p = %v, want %v (decoupled decay)", p[0], want)
	}
}

// TestExportImportRoundTrip: WriteGroupTo's record is the stored object
// followed by the CRC-32C it returns, and ImportWire stores that object byte
// for byte — NaN payloads included, which a comparison of floats would not
// see — reading the record and nothing more; training continues identically.
func TestExportImportRoundTrip(t *testing.T) {
	m := buildModel(t)
	src := MemStore{}
	ooc := NewOutOfCoreAdam(src, DefaultAdam(), "a")
	for _, g := range m.ParamGroups() {
		if err := ooc.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	setGrads(m, 3)
	ooc.BeginStep()
	for _, g := range m.ParamGroups() {
		if err := ooc.UpdateGroup(g); err != nil {
			t.Fatal(err)
		}
	}

	// A NaN with a payload as the first group's first master.
	binary.LittleEndian.PutUint32(src[ooc.stateKey(m.ParamGroups()[0].Name)], 0x7fc01234)

	m2 := buildModel(t)
	dst := MemStore{}
	ooc2 := NewOutOfCoreAdam(dst, DefaultAdam(), "b")
	for _, g := range m2.ParamGroups() {
		if err := ooc2.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	for i, g := range m.ParamGroups() {
		var wire bytes.Buffer
		crc, err := ooc.WriteGroupTo(&wire, g.Name, g.NumParams())
		if err != nil {
			t.Fatal(err)
		}
		stored := src[ooc.stateKey(g.Name)]
		if rec := wire.Bytes(); !bytes.Equal(rec[:len(rec)-4], stored) || binary.LittleEndian.Uint32(rec[len(stored):]) != crc {
			t.Fatalf("%s: WriteGroupTo's record is not the stored object and its CRC", g.Name)
		}
		wire.WriteString("next")
		if ok, err := ooc2.ImportWire(m2.ParamGroups()[i], &wire); err != nil || !ok || wire.String() != "next" {
			t.Fatalf("%s: ImportWire = %v, %v, leaving %q", g.Name, ok, err, wire.String())
		}
		if !bytes.Equal(dst[ooc2.stateKey(g.Name)], stored) {
			t.Fatalf("%s: the imported object differs from the exported one", g.Name)
		}
	}
	if w := m2.ParamGroups()[0].Params[0].W.Data[0]; !math.IsNaN(float64(w)) {
		t.Fatalf("P16 of the NaN master = %v, want NaN", w)
	}
	if err := ooc2.SetStep(ooc.Step()); err != nil {
		t.Fatal(err)
	}

	// Continue both for one more identical step.
	setGrads(m, 4)
	setGrads(m2, 4)
	ooc.BeginStep()
	ooc2.BeginStep()
	for i, g := range m.ParamGroups() {
		if err := ooc.UpdateGroup(g); err != nil {
			t.Fatal(err)
		}
		if err := ooc2.UpdateGroup(m2.ParamGroups()[i]); err != nil {
			t.Fatal(err)
		}
	}
	pa, pb := m.Params(), m2.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if math.Float32bits(pa[i].W.Data[j]) != math.Float32bits(pb[i].W.Data[j]) {
				t.Fatalf("diverged after import at %s[%d]", pa[i].Name, j)
			}
		}
	}
	for _, g := range m.ParamGroups() {
		if !bytes.Equal(src[ooc.stateKey(g.Name)], dst[ooc2.stateKey(g.Name)]) {
			t.Fatalf("stored state of %s differs a step after import", g.Name)
		}
	}
}

// TestImportWireValidatesSizes: a record that is short — in its object or
// its CRC — or whose object fails its CRC changes neither the stored state
// nor the working weights, and says so.
func TestImportWireValidatesSizes(t *testing.T) {
	m := buildModel(t)
	store := MemStore{}
	ooc := NewOutOfCoreAdam(store, DefaultAdam(), "x")
	g := m.ParamGroups()[0]
	if err := ooc.InitGroup(g); err != nil {
		t.Fatal(err)
	}
	before, w0 := append([]byte(nil), store[ooc.stateKey(g.Name)]...), g.Params[0].W.Data[0]
	obj := bytes.Repeat([]byte{0x3c}, 12*g.NumParams())
	good := binary.LittleEndian.AppendUint32(append([]byte(nil), obj...), crc32.Checksum(obj, castagnoli))
	for name, rec := range map[string][]byte{
		"empty":         nil,
		"short object":  obj[:len(obj)-1],
		"no checksum":   obj,
		"short crc":     good[:len(good)-1],
		"flipped byte":  append([]byte{obj[0] ^ 1}, good[1:]...),
		"crc of others": append(append([]byte(nil), obj...), 0, 0, 0, 0),
	} {
		if ok, err := ooc.ImportWire(g, bytes.NewReader(rec)); err == nil || ok {
			t.Errorf("%s: ImportWire = %v, %v, want a refusal that stored nothing", name, ok, err)
		}
		if !bytes.Equal(store[ooc.stateKey(g.Name)], before) || g.Params[0].W.Data[0] != w0 {
			t.Fatalf("%s: the refused import changed the state", name)
		}
	}
	if ok, err := ooc.ImportWire(g, bytes.NewReader(good)); err != nil || !ok || !bytes.Equal(store[ooc.stateKey(g.Name)], obj) {
		t.Fatalf("the good record: ImportWire = %v, %v", ok, err)
	}
	if err := ooc.SetStep(-1); err == nil {
		t.Error("negative step accepted")
	}
}

func TestSchedules(t *testing.T) {
	if got := ConstantLR(0.5)(17); got != 0.5 {
		t.Errorf("ConstantLR = %v", got)
	}
	s := WarmupCosine(1.0, 10, 100, 0.1)
	if got := s(5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("warmup midpoint = %v, want 0.5", got)
	}
	if got := s(10); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("warmup end = %v, want 1.0", got)
	}
	// Midway through the cosine the LR sits between floor and base.
	mid := s(55)
	if mid <= 0.1 || mid >= 1.0 {
		t.Errorf("cosine midpoint = %v", mid)
	}
	if got := s(100); got != 0.1 {
		t.Errorf("final LR = %v, want floor", got)
	}
	if got := s(5000); got != 0.1 {
		t.Errorf("past-end LR = %v, want floor", got)
	}
	// Degenerate schedules do not divide by zero.
	if got := WarmupCosine(1, 0, 0, 0)(1); got < 0 {
		t.Errorf("degenerate schedule = %v", got)
	}
}

func TestSetLR(t *testing.T) {
	o := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "x")
	o.SetLR(0.42)
	if o.LR() != 0.42 {
		t.Errorf("LR = %v", o.LR())
	}
}

func TestWriteGroupToMissing(t *testing.T) {
	o := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "x")
	var w bytes.Buffer
	if _, err := o.WriteGroupTo(&w, "ghost", 4); err == nil || w.Len() != 0 {
		t.Errorf("export of missing group = %v with %d bytes written", err, w.Len())
	}
}

// TestClipNorm: huge per-group gradients are rescaled to the clip norm,
// small ones pass through untouched.
func TestClipNorm(t *testing.T) {
	m := buildModel(t)
	ooc := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "c")
	if err := ooc.SetClipNorm(1.0); err != nil {
		t.Fatal(err)
	}
	g := m.ParamGroups()[1]
	if err := ooc.InitGroup(g); err != nil {
		t.Fatal(err)
	}
	before, err := ooc.MasterWeights(g.Name, g.NumParams())
	if err != nil {
		t.Fatal(err)
	}
	// Gradients of norm 1000: the clipped update equals the update from
	// the same direction at norm 1.
	for _, p := range g.Params {
		for i := range p.G.Data {
			p.G.Data[i] = 1000 / float32(math.Sqrt(float64(g.NumParams())))
		}
	}
	ooc.BeginStep()
	if err := ooc.UpdateGroup(g); err != nil {
		t.Fatal(err)
	}
	after, err := ooc.MasterWeights(g.Name, g.NumParams())
	if err != nil {
		t.Fatal(err)
	}
	// Each coordinate moved by at most ~LR (Adam's per-coordinate step is
	// bounded by LR regardless, but the clipped gradient is tiny so moments
	// stay small); mainly: the update happened and is finite.
	moved := 0
	for i := range before {
		d := math.Abs(float64(after[i] - before[i]))
		if d > 0 {
			moved++
		}
		if d > 2*DefaultAdam().LR {
			t.Fatalf("coordinate %d moved %v, beyond Adam's bound", i, d)
		}
	}
	if moved == 0 {
		t.Fatal("clipping zeroed the update entirely")
	}
	if err := ooc.SetClipNorm(-1); err == nil {
		t.Error("negative clip norm accepted")
	}
}

func TestLossScalerDynamics(t *testing.T) {
	s, err := NewLossScaler(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Scale() != 1<<10 {
		t.Fatalf("initial scale = %v", s.Scale())
	}
	s.OnOverflow()
	if s.Scale() != 1<<9 {
		t.Errorf("after overflow scale = %v, want halved", s.Scale())
	}
	// 100 good steps double the scale.
	for i := 0; i < 100; i++ {
		s.OnGoodStep()
	}
	if s.Scale() != 1<<10 {
		t.Errorf("after growth interval scale = %v, want doubled", s.Scale())
	}
	// Overflows clamp at the floor.
	for i := 0; i < 100; i++ {
		s.OnOverflow()
	}
	if s.Scale() != 1 {
		t.Errorf("floor = %v, want 1", s.Scale())
	}
	// The ceiling holds too.
	big, _ := NewLossScaler(1 << 24)
	for i := 0; i < 200; i++ {
		big.OnGoodStep()
	}
	if big.Scale() > 1<<24 {
		t.Errorf("ceiling exceeded: %v", big.Scale())
	}
	if _, err := NewLossScaler(0.5); err == nil {
		t.Error("sub-1 initial scale accepted")
	}
}

func TestGradScaleUnscalesInOptimizer(t *testing.T) {
	m := buildModel(t)
	ooc := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "s")
	g := m.ParamGroups()[0]
	if err := ooc.InitGroup(g); err != nil {
		t.Fatal(err)
	}
	if err := ooc.SetGradScale(0); err == nil {
		t.Error("zero grad scale accepted")
	}
	if err := ooc.SetGradScale(1024); err != nil {
		t.Fatal(err)
	}
	before, _ := ooc.MasterWeights(g.Name, g.NumParams())
	// Gradients at 1024x: after unscale they are unit-sized, so Adam's
	// first step moves each master by ~LR.
	for _, p := range g.Params {
		for i := range p.G.Data {
			p.G.Data[i] = 1024
		}
	}
	ooc.BeginStep()
	if err := ooc.UpdateGroup(g); err != nil {
		t.Fatal(err)
	}
	after, _ := ooc.MasterWeights(g.Name, g.NumParams())
	for i := range before {
		if d := math.Abs(float64(after[i] - before[i])); d > 1.5*DefaultAdam().LR {
			t.Fatalf("unscale failed: master moved %v", d)
		}
	}
	if err := ooc.CancelStep(); err != nil {
		t.Fatal(err)
	}
	if ooc.Step() != 0 {
		t.Errorf("step after cancel = %d", ooc.Step())
	}
	if err := ooc.CancelStep(); err == nil {
		t.Error("cancel below zero accepted")
	}
}

// stagedAdamWire is the staged form adamWire replaced, kept as its
// reference (and BenchmarkAdamWire's baseline): decode the state object's
// three planes into slices, AdamStep, encode back.
func stagedAdamWire(wire []byte, cfg AdamConfig, step int, p32, m, v, grad []float32) error {
	nb := 4 * len(p32)
	for i, t := range [][]float32{p32, m, v} {
		if err := tensor.FromFP32Bytes(wire[i*nb:(i+1)*nb], t); err != nil {
			return err
		}
	}
	if err := AdamStep(cfg, step, p32, m, v, grad); err != nil {
		return err
	}
	for i, t := range [][]float32{p32, m, v} {
		if err := tensor.ToFP32BytesInto(wire[i*nb:(i+1)*nb], t); err != nil {
			return err
		}
	}
	return nil
}

// TestAdamWireBitIdenticalToStaged: UpdateGroup's single walk over the wire
// buffer leaves the store object and the installed fp16 weights bit-identical
// to decode → AdamStep → encode, at sizes around the chunk grain and one of
// many chunks, with weight decay, loss-scale unscaling and clipping
// on and off, serial and sharded (make test-procs repeats it at GOMAXPROCS 1,
// 2 and 4).
func TestAdamWireBitIdenticalToStaged(t *testing.T) {
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	sizes := []int{0, 1, 7, adamChunkGrain - 1, adamChunkGrain, adamChunkGrain + 1, 1<<17 + 1}
	for _, n := range sizes {
		for _, variant := range []struct{ decay, scaleClip bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			for _, threads := range []int{1, 2, 4} {
				tensor.SetParallelism(threads)
				cfg := DefaultAdam()
				if variant.decay {
					cfg.WeightDecay = 0.01
				}
				store := MemStore{}
				o := NewOutOfCoreAdam(store, cfg, "w")
				if variant.scaleClip {
					if err := o.SetGradScale(1024); err != nil {
						t.Fatal(err)
					}
					if err := o.SetClipNorm(0.5); err != nil {
						t.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(int64(n) + 1))
				w, gr := tensor.New(n), tensor.New(n)
				w.RandInit(rng, 0.5)
				g := nn.ParamGroup{Name: "g", Params: []nn.Param{{Name: "g.w", W: w, G: gr}}}
				if err := o.InitGroup(g); err != nil {
					t.Fatal(err)
				}
				key := o.stateKey(g.Name)
				p32, m, v, grad := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
				for step := 1; step <= 3; step++ {
					gr.RandInit(rng, 300)
					want := append([]byte(nil), store[key]...)
					if err := o.stageGrads(grad, g); err != nil {
						t.Fatal(err)
					}
					if err := stagedAdamWire(want, cfg, step, p32, m, v, grad); err != nil {
						t.Fatal(err)
					}
					o.BeginStep()
					if err := o.UpdateGroup(g); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(store[key], want) {
						t.Fatalf("n=%d %+v threads=%d step %d: state object differs from the staged update", n, variant, threads, step)
					}
					for i := range p32 {
						if math.Float32bits(w.Data[i]) != math.Float32bits(tensor.RoundFP16(p32[i])) {
							t.Fatalf("n=%d %+v threads=%d step %d: installed weight %d differs", n, variant, threads, step, i)
						}
					}
				}
			}
		}
	}
}

// TestAdamWireRejectsShortObject: a state object of the wrong size is the
// error it was from the codec, never an out-of-range walk.
func TestAdamWireRejectsShortObject(t *testing.T) {
	o := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "w")
	grad := make([]float32, 3)
	for _, nb := range []int{0, 35, 37} {
		_, err := o.adamWire(make([]byte, nb), o.cfg, 1, grad, "g", "g/opt-adam")
		if want := fmt.Sprintf("opt: decode g: state object is %d bytes, want 36", nb); err == nil || err.Error() != want {
			t.Errorf("%d-byte object: err = %v, want %q", nb, err, want)
		}
	}
}
