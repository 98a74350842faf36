package experiments

import (
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/data"
	"ratel/internal/engine"
	"ratel/internal/nn"
	"ratel/internal/obs"
)

// TestCalibStateBytesAreTheArrays: the state bytes calib prices the
// simulated handlers with are the bytes the array moved. On calib's model
// with no block swapped, so that the optimizer's state is the array's only
// traffic, calibMeasure's read and write counts equal the array's over the
// same window, and each is under the 12 B/param the calibration once
// assumed.
func TestCalibStateBytesAreTheArrays(t *testing.T) {
	const steps = 3
	cfg := nn.Config{Vocab: 48, Seq: 12, Hidden: 16, Heads: 2, Layers: 3, Batch: 4, Seed: 5}
	tr := obs.NewTracer(obs.DefaultCapacity)
	e, err := engine.New(engine.Config{Model: cfg, GradMode: agoffload.Optimized, Devices: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	}()
	loader, err := data.NewLoader(data.Progression, cfg.Batch, cfg.Seq, cfg.Vocab, 42)
	if err != nil {
		t.Fatal(err)
	}
	tokens, targets := loader.Next()
	if _, err := e.TrainStep(tokens, targets); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().SSD
	run, err := calibMeasure(e, tr, loader, steps)
	if err != nil {
		t.Fatal(err)
	}
	after := e.Stats().SSD
	read, written := int64(after.BytesRead-before.BytesRead), int64(after.BytesWritten-before.BytesWritten)
	if run.stateRead != read || run.stateWrite != written {
		t.Fatalf("calib counts %d B read and %d written, the array moved %d and %d", run.stateRead, run.stateWrite, read, written)
	}
	if old := int64(12 * e.Model().NumParams() * steps); read >= old || written >= old {
		t.Fatalf("state bytes %d read, %d written: not under 12 B/param (%d)", read, written, old)
	}
}
