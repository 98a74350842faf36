package core

import (
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/hw"
	"ratel/internal/nn"
	"ratel/internal/units"
)

func sessionOpts() Options {
	return Options{
		Model:    nn.Config{Vocab: 13, Seq: 6, Hidden: 8, Heads: 2, Layers: 2, Batch: 2, Seed: 5},
		GradMode: agoffload.Optimized,
		Devices:  2,
	}
}

func TestInitTrainClose(t *testing.T) {
	s, err := Init(sessionOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tokens := [][]int{{1, 2, 3, 4, 5, 6}, {2, 3, 4, 5, 6, 7}}
	targets := [][]int{{2, 3, 4, 5, 6, 7}, {3, 4, 5, 6, 7, 8}}
	var first, last float64
	for i := 0; i < 6; i++ {
		loss, err := s.TrainStep(tokens, targets)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Errorf("loss did not decrease: %.4f -> %.4f", first, last)
	}
	if s.Stats().Steps != 6 {
		t.Errorf("steps = %d, want 6", s.Stats().Steps)
	}
	if s.Model() == nil {
		t.Error("nil model")
	}
}

func TestInitRunsPlanner(t *testing.T) {
	opts := sessionOpts()
	s, err := Init(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Plan().AG2M <= 0 {
		t.Error("planner did not run at Init")
	}
}

func TestInitRejectsBadOptions(t *testing.T) {
	opts := sessionOpts()
	opts.GradMode = 99
	if _, err := Init(opts); err == nil {
		t.Error("bad gradient mode accepted")
	}
	opts = sessionOpts()
	opts.Model.Heads = 3
	if _, err := Init(opts); err == nil {
		t.Error("bad model config accepted")
	}
}

func TestPredict(t *testing.T) {
	srv := hw.EvalServer(hw.RTX4090, 768*units.GiB, 12)
	rep, err := Predict("Ratel", "13B", 32, srv)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TokensPerSec <= 0 {
		t.Error("non-positive predicted throughput")
	}
	if _, err := Predict("nope", "13B", 32, srv); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := Predict("Ratel", "999B", 32, srv); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestMaxTrainable(t *testing.T) {
	srv := hw.EvalServer(hw.RTX4090, 256*units.GiB, 12)
	cfg, ok, err := MaxTrainable("Ratel", srv, 1)
	if err != nil || !ok {
		t.Fatalf("MaxTrainable: %v, ok=%v", err, ok)
	}
	if cfg.Name != "276B" {
		t.Errorf("max trainable = %s, want 276B (Fig. 8b)", cfg.Name)
	}
	if _, _, err := MaxTrainable("nope", srv, 1); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPlanFor(t *testing.T) {
	srv := hw.EvalServer(hw.RTX4090, 768*units.GiB, 12)
	pl, err := PlanFor("13B", 32, srv)
	if err != nil {
		t.Fatal(err)
	}
	if pl.AG2M <= 0 || pl.Predicted.Titer <= 0 {
		t.Errorf("degenerate plan: %+v", pl)
	}
	if _, err := PlanFor("999B", 32, srv); err == nil {
		t.Error("unknown model accepted")
	}
}
