package nn

import (
	"math"
	"math/rand"
	"testing"

	"ratel/internal/tensor"
)

func dropConfig(p float64) Config {
	cfg := tinyConfig()
	cfg.Dropout = p
	return cfg
}

func TestDropoutMasksAreDeterministic(t *testing.T) {
	step := uint64(3)
	d := &Dropout{P: 0.5, Seed: 7, Step: &step}
	a := tensor.New(4, 8)
	b := tensor.New(4, 8)
	for i := range a.Data {
		a.Data[i] = 1
		b.Data[i] = 1
	}
	d.Apply(a, 2)
	d.Apply(b, 2)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same (seed, step, site) produced different masks")
		}
	}
	// A different step yields a different mask.
	step = 4
	c := tensor.New(4, 8)
	for i := range c.Data {
		c.Data[i] = 1
	}
	d.Apply(c, 2)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different steps produced identical masks")
	}
}

func TestDropoutRate(t *testing.T) {
	step := uint64(1)
	d := &Dropout{P: 0.3, Seed: 11, Step: &step}
	x := tensor.New(100, 100)
	for i := range x.Data {
		x.Data[i] = 1
	}
	d.Apply(x, 0)
	zeros := 0
	for _, v := range x.Data {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(len(x.Data))
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("drop fraction = %.3f, want ~0.30", frac)
	}
	// Survivors are scaled by 1/(1-p).
	want := tensor.RoundFP16(1 / 0.7)
	for _, v := range x.Data {
		if v != 0 && v != want {
			t.Fatalf("survivor = %v, want %v", v, want)
		}
	}
}

func TestDropoutBackwardMatchesForwardMask(t *testing.T) {
	step := uint64(5)
	d := &Dropout{P: 0.4, Seed: 3, Step: &step}
	x := tensor.New(8, 8)
	dy := tensor.New(8, 8)
	for i := range x.Data {
		x.Data[i] = 1
		dy.Data[i] = 1
	}
	d.Apply(x, 1)
	d.Backward(dy, 1)
	for i := range x.Data {
		if (x.Data[i] == 0) != (dy.Data[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestInactiveDropoutIsIdentity(t *testing.T) {
	var d *Dropout
	if d.Active() {
		t.Error("nil dropout active")
	}
	x := tensor.New(2, 2)
	x.Data[0] = 5
	d.Apply(x, 0) // must not panic
	if x.Data[0] != 5 {
		t.Error("nil dropout modified data")
	}
}

// TestDropoutRecomputeEquivalence is the critical property: with dropout
// enabled, recomputing a block replays exactly the masks the original
// forward pass used, so gradients stay bit-identical.
func TestDropoutRecomputeEquivalence(t *testing.T) {
	cfg := dropConfig(0.2)
	tokens, targets := randomData(cfg, 13)

	run := func(recompute map[int]bool) (float64, map[string][]float32) {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.RoundParamsFP16()
		m.ZeroGrads()
		loss, err := m.ForwardBackward(tokens, targets, recompute)
		if err != nil {
			t.Fatal(err)
		}
		grads := map[string][]float32{}
		for _, p := range m.Params() {
			grads[p.Name] = append([]float32(nil), p.G.Data...)
		}
		return loss, grads
	}
	lossKeep, gradsKeep := run(nil)
	lossRec, gradsRec := run(map[int]bool{0: true, 1: true})
	if lossKeep != lossRec {
		t.Fatalf("loss differs under recomputation with dropout: %v vs %v", lossKeep, lossRec)
	}
	for name, g := range gradsKeep {
		for i := range g {
			if g[i] != gradsRec[name][i] {
				t.Fatalf("gradient %s[%d] differs with dropout + recompute", name, i)
			}
		}
	}
}

// TestRecomputeStopsWhereBackwardStopsReading: with dropout active, the cache
// Recompute builds equals the one Forward saved, bit for bit, on every tensor
// Backward reads — and carries no block output, which it never computed.
func TestRecomputeStopsWhereBackwardStopsReading(t *testing.T) {
	cfg := dropConfig(0.2)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.RoundParamsFP16()
	m.SetStep(3)
	x := tensor.New(cfg.Batch*cfg.Seq, cfg.Hidden)
	x.RandInit(rand.New(rand.NewSource(17)), 1)
	x.RoundFP16InPlace()
	b := m.Blocks[1]
	if !b.Drop.Active() {
		t.Fatal("dropout inactive: the test would not cover the mask replay")
	}
	_, fwd, err := b.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := b.Recompute(x)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Y != nil {
		t.Error("recomputed cache carries a block output")
	}
	pairs := map[string][2]*tensor.Tensor{
		"X": {fwd.X, rec.X}, "LN1Out": {fwd.LN1Out, rec.LN1Out},
		"Attn.QKV": {fwd.Attn.QKV, rec.Attn.QKV}, "Attn.Ctx": {fwd.Attn.Ctx, rec.Attn.Ctx},
		"Attn.Probs": {fwd.Attn.Probs, rec.Attn.Probs},
		"Res1":       {fwd.Res1, rec.Res1}, "LN2Out": {fwd.LN2Out, rec.LN2Out},
		"FC1Out": {fwd.FC1Out, rec.FC1Out}, "GeluOut": {fwd.GeluOut, rec.GeluOut},
	}
	for name, pr := range pairs {
		if len(pr[0].Data) == 0 || len(pr[0].Data) != len(pr[1].Data) {
			t.Fatalf("%s: %d vs %d elements", name, len(pr[0].Data), len(pr[1].Data))
		}
		for i := range pr[0].Data {
			if math.Float32bits(pr[0].Data[i]) != math.Float32bits(pr[1].Data[i]) {
				t.Fatalf("%s[%d] differs between forward and recomputed cache", name, i)
			}
		}
	}
}

// TestDropoutMasksChangePerStep: two training passes see different masks
// (losses differ on the same data).
func TestDropoutMasksChangePerStep(t *testing.T) {
	cfg := dropConfig(0.3)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens, targets := randomData(cfg, 17)
	m.ZeroGrads()
	l1, err := m.ForwardBackward(tokens, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.ZeroGrads()
	l2, err := m.ForwardBackward(tokens, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l1 == l2 {
		t.Error("losses identical across steps; dropout masks are not advancing")
	}
	if m.Step() != 2 {
		t.Errorf("step = %d, want 2", m.Step())
	}
}

func TestDropoutValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Dropout = 1.0
	if _, err := NewModel(cfg); err == nil {
		t.Error("dropout=1 accepted")
	}
}
