package main

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ratel/internal/engine"
	"ratel/internal/nn"
)

// TestWriteCheckpointReplacesAtomically: a save that fails mid-stream — a
// device fault while the state objects are being read, after the header has
// gone to the file — returns the fault and leaves the previous checkpoint
// byte-identical and no temporary file behind; the next save replaces it with
// one that loads.
func TestWriteCheckpointReplacesAtomically(t *testing.T) {
	// Vocab × hidden = 1024 embedding parameters: the first group's state object
	// is three 4 KiB chunks on the one device, so the fault lands inside it.
	cfg := nn.Config{Vocab: 64, Seq: 4, Hidden: 16, Heads: 2, Layers: 1, Batch: 1, Seed: 5}
	e, err := engine.New(engine.Config{Model: cfg, Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	}()
	rng := rand.New(rand.NewSource(1))
	step := func() {
		t.Helper()
		tokens, targets := [][]int{make([]int, cfg.Seq)}, [][]int{make([]int, cfg.Seq)}
		for i := range tokens[0] {
			tokens[0][i], targets[0][i] = rng.Intn(cfg.Vocab), rng.Intn(cfg.Vocab)
		}
		if _, err := e.TrainStep(tokens, targets); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "ck.bin")
	step()
	if err := writeCheckpoint(path, e.SaveCheckpoint); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	step()
	e.Stats() // joins the write-back: the next chunk operations are the save's reads
	boom := errors.New("media failure")
	e.Array().InjectFaultAfter(0, 1, boom)
	if err := writeCheckpoint(path, e.SaveCheckpoint); !errors.Is(err, boom) {
		t.Fatalf("writeCheckpoint with a fault in the read = %v, want %v", err, boom)
	}
	e.Array().InjectFault(0, nil)
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the failed save changed the previous checkpoint (%v)", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temporary file left behind: %v", err)
	}

	if err := writeCheckpoint(path, e.SaveCheckpoint); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := e.LoadCheckpoint(f); err != nil {
		t.Fatalf("the replacing checkpoint does not load: %v", err)
	}
}
