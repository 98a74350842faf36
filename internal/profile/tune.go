package profile

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"ratel/internal/tensor"
	"ratel/internal/tensor/simd"
)

// Kernel calibration (the `ratelbench tune` subcommand): the element-wise
// grain trades chunk-dispatch overhead against load balance, and the best
// setting is machine-specific — core count and memory bandwidth move the
// optimum. Because every grain is bit-identical (chunks only partition
// *independent* output work, never an accumulation; see
// tensor.SetElemGrain), a profile measured once can be applied on every
// later run without affecting results.
//
// The matmul blocking is not in the profile: the packed-panel depth and the
// a·bᵀ row panel are constants sized to L1 (EXPERIMENTS.md "Register-tiled
// GEMM" has the sweep that retired matmul_k_block / matmul_j_block). A
// profile written before that still loads; its two tile fields are ignored.
//
// The profile is a small JSON file. RATEL_TUNE_PROFILE names the file to
// load at engine startup (unset → built-in defaults); `ratelbench tune`
// writes one.

// TuningVersion identifies the profile schema; Load rejects other versions
// rather than silently applying fields with changed meanings.
const TuningVersion = 1

// Tuning is a machine-specific kernel calibration profile.
type Tuning struct {
	Version   int    `json:"version"`
	SIMDLevel string `json:"simd_level"` // dispatch level when measured (informational)
	Threads   int    `json:"threads"`    // pool parallelism when measured (informational)
	CreatedAt string `json:"created_at"` // RFC 3339 UTC

	ElemGrain int `json:"elem_grain"` // tensor.SetElemGrain: min elements per chunk
}

// Apply installs the profile's settings into the tensor package. The
// settings are result-neutral, so a stale or foreign profile can cost
// speed but never correctness.
func (t Tuning) Apply() error {
	if err := tensor.SetElemGrain(t.ElemGrain); err != nil {
		return fmt.Errorf("profile: tuning: %w", err)
	}
	return nil
}

// Save writes the profile as indented JSON.
func (t Tuning) Save(path string) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("profile: encode tuning: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadTuning reads a profile written by Save and validates its version and
// settings (Apply re-validates; this catches a corrupt file early with a
// path in the error).
func LoadTuning(path string) (Tuning, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Tuning{}, fmt.Errorf("profile: read tuning: %w", err)
	}
	var t Tuning
	if err := json.Unmarshal(b, &t); err != nil {
		return Tuning{}, fmt.Errorf("profile: parse tuning %s: %w", path, err)
	}
	if t.Version != TuningVersion {
		return Tuning{}, fmt.Errorf("profile: tuning %s has version %d, want %d", path, t.Version, TuningVersion)
	}
	if t.ElemGrain < 1 {
		return Tuning{}, fmt.Errorf("profile: tuning %s has a non-positive element grain", path)
	}
	return t, nil
}

// TuneEnvVar names the calibration profile applied at engine startup.
const TuneEnvVar = "RATEL_TUNE_PROFILE"

var (
	startupOnce sync.Once
	startupPath string
	startupErr  error
)

// ApplyStartupTuning loads and applies the profile named by
// RATEL_TUNE_PROFILE, once per process (engine.New calls it; later calls
// return the first outcome). With the variable unset it is a no-op
// returning ("", nil); with it set, a missing or invalid file is an error
// — a requested calibration that silently fails to load would be a
// hard-to-spot performance regression.
func ApplyStartupTuning() (path string, err error) {
	startupOnce.Do(func() {
		startupPath, startupErr = loadStartupTuning(os.Getenv(TuneEnvVar))
	})
	return startupPath, startupErr
}

func loadStartupTuning(path string) (string, error) {
	if path == "" {
		return "", nil
	}
	t, err := LoadTuning(path)
	if err != nil {
		return "", err
	}
	return path, t.Apply()
}

// TuneConfig sizes the calibration sweep.
type TuneConfig struct {
	// ElemN is the element count timed per grain candidate (default 1<<20).
	ElemN int
	// Repeats is the timing repetitions per candidate; best-of is kept
	// (default 3).
	Repeats int
}

func (c *TuneConfig) fill() {
	if c.ElemN <= 0 {
		c.ElemN = 1 << 20
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
}

// tuneCandidates returns the swept grains. Exposed as data (not hard-coded
// in the loop) so tests can assert coverage.
func tuneCandidates() []int {
	return []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
}

// TuneKernels sweeps the element-wise grain on this machine and returns
// the fastest setting found. The current setting is restored before
// returning — callers opt in via Apply. logf (optional) receives one line
// per candidate with its best time.
func TuneKernels(cfg TuneConfig, logf func(format string, a ...any)) (Tuning, error) {
	cfg.fill()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	oldGrain := tensor.ElemGrain()
	defer func() { _ = tensor.SetElemGrain(oldGrain) }()

	elems := tensor.New(1, cfg.ElemN)
	elems.RandInit(rand.New(rand.NewSource(1)), 1)

	best := Tuning{
		Version:   TuningVersion,
		SIMDLevel: simd.Level(),
		Threads:   tensor.Parallelism(),
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}

	// Times the fp16 round-trip (the densest element-wise kernel the
	// training step runs).
	bestD := time.Duration(0)
	for _, g := range tuneCandidates() {
		if err := tensor.SetElemGrain(g); err != nil {
			return Tuning{}, err
		}
		d := timeBest(cfg.Repeats, func() error { elems.RoundFP16InPlace(); return nil })
		if d < 0 {
			return Tuning{}, fmt.Errorf("profile: tune: round failed at grain=%d", g)
		}
		logf("tune elemwise grain=%-7d %v", g, d)
		if best.ElemGrain == 0 || d < bestD {
			best.ElemGrain, bestD = g, d
		}
	}
	return best, nil
}

// timeBest runs f once to warm caches, then returns the best of repeats
// timings (negative on error).
func timeBest(repeats int, f func() error) time.Duration {
	if f() != nil {
		return -1
	}
	best := time.Duration(0)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if f() != nil {
			return -1
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best
}
