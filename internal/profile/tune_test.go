package profile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ratel/internal/tensor"
)

// restoreTensorSettings snapshots the tunables and restores them when the
// test ends, so tuning tests cannot leak settings into other packages'
// tests sharing the process.
func restoreTensorSettings(t *testing.T) {
	t.Helper()
	g := tensor.ElemGrain()
	t.Cleanup(func() {
		if err := tensor.SetElemGrain(g); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTuneKernelsSweepAndRoundtrip runs a tiny sweep, checks the result is
// drawn from the candidate sets with metadata filled, round-trips it
// through Save/Load, and applies it.
func TestTuneKernelsSweepAndRoundtrip(t *testing.T) {
	restoreTensorSettings(t)
	var lines int
	pre := tensor.ElemGrain()
	tuning, err := TuneKernels(TuneConfig{ElemN: 1 << 12, Repeats: 1},
		func(string, ...any) { lines++ })
	if err != nil {
		t.Fatal(err)
	}
	grains := tuneCandidates()
	if lines != len(grains) {
		t.Errorf("logf called %d times, want %d", lines, len(grains))
	}
	if !contains(grains, tuning.ElemGrain) {
		t.Errorf("tuning picked a value outside the candidate set: %+v", tuning)
	}
	if tuning.Version != TuningVersion || tuning.SIMDLevel == "" || tuning.Threads < 1 || tuning.CreatedAt == "" {
		t.Errorf("metadata incomplete: %+v", tuning)
	}

	// The sweep must restore the pre-sweep setting.
	if g := tensor.ElemGrain(); g != pre {
		t.Errorf("sweep leaked grain %d, want %d", g, pre)
	}

	path := filepath.Join(t.TempDir(), "tune.json")
	if err := tuning.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTuning(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != tuning {
		t.Errorf("roundtrip changed the profile:\n  saved  %+v\n  loaded %+v", tuning, loaded)
	}

	if err := loaded.Apply(); err != nil {
		t.Fatal(err)
	}
	if g := tensor.ElemGrain(); g != loaded.ElemGrain {
		t.Errorf("Apply set grain %d, want %d", g, loaded.ElemGrain)
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestLoadTuningRejectsBadProfiles checks version and validity gating.
func TestLoadTuningRejectsBadProfiles(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"missing":   "", // never written
		"garbage":   "not json",
		"version":   `{"version": 99, "elem_grain": 1}`,
		"zeroGrain": `{"version": 1, "elem_grain": 0}`,
	}
	for name, body := range cases {
		path := filepath.Join(dir, name+".json")
		if body != "" {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := LoadTuning(path); err == nil {
			t.Errorf("LoadTuning accepted %s profile", name)
		}
	}
}

// TestLoadTuningAcceptsRetiredTileFields: a profile written while the
// matmul tiles were tunable still loads and applies; the retired fields
// are ignored whatever they hold.
func TestLoadTuningAcceptsRetiredTileFields(t *testing.T) {
	restoreTensorSettings(t)
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"version": 1, "simd_level": "avx2-fma-f16c", "threads": 1, "created_at": "2026-08-08T00:00:00Z",
		"sweep_dim": 512, "matmul_k_block": 256, "matmul_j_block": 0, "elem_grain": 1024}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTuning(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Apply(); err != nil {
		t.Fatal(err)
	}
	if g := tensor.ElemGrain(); g != 1024 {
		t.Errorf("old profile applied grain %d, want 1024", g)
	}
}

// TestStartupTuning exercises the startup loader directly (the sync.Once
// wrapper fires at most once per process, so tests target the inner func).
func TestStartupTuning(t *testing.T) {
	restoreTensorSettings(t)

	// Unset env → no-op.
	if path, err := loadStartupTuning(""); path != "" || err != nil {
		t.Errorf("unset: got (%q, %v), want no-op", path, err)
	}

	// Valid profile → applied.
	good := Tuning{Version: TuningVersion, SIMDLevel: "generic", Threads: 1,
		CreatedAt: "2026-01-01T00:00:00Z", ElemGrain: 2048}
	path := filepath.Join(t.TempDir(), "tune.json")
	if err := good.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := loadStartupTuning(path)
	if err != nil || got != path {
		t.Fatalf("loadStartupTuning(%q) = (%q, %v)", path, got, err)
	}
	if g := tensor.ElemGrain(); g != 2048 {
		t.Errorf("startup tuning applied grain %d, want 2048", g)
	}

	// Named but missing → error (a silently-ignored calibration request
	// would be an invisible performance regression).
	if _, err := loadStartupTuning(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing profile: want error")
	} else if !strings.Contains(err.Error(), "tuning") {
		t.Errorf("missing profile error lacks context: %v", err)
	}
}
