package benchdiff

import (
	"strings"
	"testing"
)

const oldSnap = `{
 "description": "old",
 "results": [
  {"bench": "BenchmarkMatMul_512", "variant": "blocked-1thread", "ns_per_op": 11000000, "gflops": 24.0},
  {"bench": "BenchmarkFP16Codec_1M", "variant": "encode-simd", "ns_per_op": 272022, "gb_per_s": 15.4},
  {"bench": "BenchmarkTrainStep_Swap", "variant": "pooled", "ns_per_op": 6273487, "allocs_per_op": 358}
 ]
}`

func load(t *testing.T, s string) Snapshot {
	t.Helper()
	snap, err := Load(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestSelfDiffIsClean(t *testing.T) {
	snap := load(t, oldSnap)
	rep := Diff(snap, snap, 0)
	if rep.Regressions != 0 {
		t.Fatalf("self-diff found %d regressions", rep.Regressions)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("self-diff gate failed: %v", err)
	}
	if len(rep.Missing) != 0 || len(rep.Added) != 0 {
		t.Fatalf("self-diff rows drifted: missing %v added %v", rep.Missing, rep.Added)
	}
}

func TestRegressionDirections(t *testing.T) {
	// ns_per_op up 50% and gb_per_s down 50%: both regress. allocs_per_op
	// down is an improvement, not a regression.
	newSnap := load(t, `{
 "description": "new",
 "results": [
  {"bench": "BenchmarkMatMul_512", "variant": "blocked-1thread", "ns_per_op": 16500000, "gflops": 24.0},
  {"bench": "BenchmarkFP16Codec_1M", "variant": "encode-simd", "ns_per_op": 272022, "gb_per_s": 7.7},
  {"bench": "BenchmarkTrainStep_Swap", "variant": "pooled", "ns_per_op": 6273487, "allocs_per_op": 100}
 ]
}`)
	rep := Diff(load(t, oldSnap), newSnap, 0.10)
	if rep.Regressions != 2 {
		t.Fatalf("got %d regressions, want 2: %+v", rep.Regressions, rep.Deltas)
	}
	byMetric := make(map[string]Delta)
	for _, d := range rep.Deltas {
		if d.Regression {
			byMetric[d.Metric] = d
		}
	}
	if _, ok := byMetric["ns_per_op"]; !ok {
		t.Error("ns_per_op increase not flagged")
	}
	if _, ok := byMetric["gb_per_s"]; !ok {
		t.Error("gb_per_s decrease not flagged")
	}
	if err := rep.Err(); err == nil {
		t.Error("gate passed with regressions present")
	}
	var buf strings.Builder
	rep.Write(&buf)
	if !strings.Contains(buf.String(), "REGRESSION BenchmarkMatMul_512") {
		t.Errorf("report missing regression line:\n%s", buf.String())
	}
}

func TestToleranceAbsorbsNoise(t *testing.T) {
	newSnap := load(t, `{
 "description": "new",
 "results": [
  {"bench": "BenchmarkMatMul_512", "variant": "blocked-1thread", "ns_per_op": 11500000, "gflops": 23.5},
  {"bench": "BenchmarkFP16Codec_1M", "variant": "encode-simd", "ns_per_op": 280000, "gb_per_s": 15.0},
  {"bench": "BenchmarkTrainStep_Swap", "variant": "pooled", "ns_per_op": 6400000, "allocs_per_op": 358}
 ]
}`)
	rep := Diff(load(t, oldSnap), newSnap, 0.10)
	if err := rep.Err(); err != nil {
		t.Fatalf("5%% drift failed a 10%% gate: %v\n%+v", err, rep.Deltas)
	}
}

func TestMissingRowIsRegression(t *testing.T) {
	newSnap := load(t, `{
 "description": "new",
 "results": [
  {"bench": "BenchmarkMatMul_512", "variant": "blocked-1thread", "ns_per_op": 11000000, "gflops": 24.0},
  {"bench": "BenchmarkNew", "variant": "x", "ns_per_op": 1}
 ]
}`)
	rep := Diff(load(t, oldSnap), newSnap, 0.10)
	if len(rep.Missing) != 2 {
		t.Fatalf("missing rows = %v, want 2", rep.Missing)
	}
	if len(rep.Added) != 1 || !strings.Contains(rep.Added[0], "BenchmarkNew") {
		t.Fatalf("added rows = %v", rep.Added)
	}
	if rep.Err() == nil {
		t.Error("vanished benchmarks passed the gate")
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"results": []}`,
		`{"results": [{"variant": "no-bench-name"}]}`,
		`{"results": [{"bench": "B", "variant": "v"}, {"bench": "B", "variant": "v"}]}`,
	} {
		if _, err := Load(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted malformed snapshot %q", bad)
		}
	}
}

// TestCommittedSnapshotsLoad pins the parser against the real artifacts:
// every BENCH_*.json in the repo root must load and self-diff clean at
// tolerance 0 (the make bench-gate contract).
func TestCommittedSnapshotsLoad(t *testing.T) {
	for _, path := range []string{
		"../../BENCH_kernels.json", "../../BENCH_overlap.json",
	} {
		snap, err := LoadFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(snap.Rows) == 0 {
			t.Errorf("%s: no rows", path)
		}
		if err := Diff(snap, snap, 0).Err(); err != nil {
			t.Errorf("%s self-diff: %v", path, err)
		}
	}
}
