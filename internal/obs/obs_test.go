package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(16)
	tr.Do(LaneCompute, "block0/fwd", func() { time.Sleep(time.Millisecond) })
	tr.Do(LaneAdam, "head/opt-adam", func() {})
	tr.Instant(LaneStep, "forward-end")

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Sorted by start: the first Do began at ~0.
	if spans[0].Name != "block0/fwd" || spans[0].Lane != LaneCompute {
		t.Errorf("first span = %+v", spans[0])
	}
	if spans[0].Duration() < time.Millisecond {
		t.Errorf("span duration %v, want >= 1ms", spans[0].Duration())
	}
	if spans[1].Start < spans[0].End {
		t.Errorf("second span starts at %v, inside the first (ends %v)", spans[1].Start, spans[0].End)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts: %+v", s.Name, s)
		}
	}
	if total, dropped := tr.Recorded(); total != 3 || dropped != 0 {
		t.Errorf("Recorded() = %d, %d; want 3, 0", total, dropped)
	}
}

func TestTracerRingKeepsNewest(t *testing.T) {
	tr := NewTracer(4)
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	for _, name := range names {
		tr.Do(LaneCompute, name, func() {})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	// The newest four, oldest first.
	for i, s := range spans {
		if want := names[6+i]; s.Name != want {
			t.Errorf("ring slot %d holds %q, want %q", i, s.Name, want)
		}
	}
	if total, dropped := tr.Recorded(); total != 10 || dropped != 6 {
		t.Errorf("Recorded() = %d, %d; want 10, 6", total, dropped)
	}
	tr.Reset()
	if got := tr.Spans(); len(got) != 0 {
		t.Errorf("after Reset, %d spans retained", len(got))
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ran := false
	tr.Do(LaneCompute, "x", func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run f")
	}
	tr.Instant(LaneStep, "z")
	tr.Reset()
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer returned spans %v", got)
	}
	if total, dropped := tr.Recorded(); total != 0 || dropped != 0 {
		t.Errorf("nil Recorded() = %d, %d", total, dropped)
	}
	if tr.Now() != 0 {
		t.Errorf("nil Now() = %v", tr.Now())
	}
}

// TestSpanPathAllocationFree pins the overhead budget: recording a span
// allocates nothing on the steady state, enabled or disabled, with f
// capturing a local the way the engine's call sites do. This is what lets
// instrumentation live unconditionally on engine hot paths.
func TestSpanPathAllocationFree(t *testing.T) {
	enabled := NewTracer(1024)
	var disabled *Tracer
	const label = "block0/bwd"
	for _, tc := range []struct {
		name string
		tr   *Tracer
	}{{"enabled", enabled}, {"disabled", disabled}} {
		n := 0
		if got := testing.AllocsPerRun(200, func() {
			var err error
			tc.tr.Do(LaneCompute, label, func() { n++; err = nil })
			_ = err
		}); got != 0 {
			t.Errorf("%s span path allocates %v per span, want 0", tc.name, got)
		}
		if n == 0 {
			t.Errorf("%s tracer never ran f", tc.name)
		}
	}
	if got := testing.AllocsPerRun(200, func() { enabled.Instant(LaneStep, label) }); got != 0 {
		t.Errorf("Instant allocates %v per marker, want 0", got)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Do(LaneAdam, "g", func() {})
			}
		}()
	}
	wg.Wait()
	if total, _ := tr.Recorded(); total != 800 {
		t.Errorf("recorded %d spans, want 800", total)
	}
	spans := tr.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatal("Spans() not sorted by start")
		}
	}
}

func TestLanesBusyUnion(t *testing.T) {
	spans := []Span{
		{Lane: "a", Start: 0, End: 10},
		{Lane: "a", Start: 5, End: 15},  // overlaps the first: union, not sum
		{Lane: "a", Start: 20, End: 30}, // disjoint
		{Lane: "b", Start: 0, End: 100}, // other lane, ignored
	}
	if got := LaneBusy(spans, "a", 0, 30); got != 25 {
		t.Errorf("LaneBusy = %v, want 25", got)
	}
	// Clipping to a window.
	if got := LaneBusy(spans, "a", 8, 22); got != 9 {
		t.Errorf("clipped LaneBusy = %v, want 9 (8..15 plus 20..22)", got)
	}
	// Union across multiple lanes.
	if got := LanesBusy(spans, []string{"a", "b"}, 0, 100); got != 100 {
		t.Errorf("LanesBusy = %v, want 100", got)
	}
	if got := LaneBusy(spans, "a", 30, 30); got != 0 {
		t.Errorf("empty window busy = %v", got)
	}
}

func TestWindowLanesFilter(t *testing.T) {
	spans := []Span{
		{Lane: "b", Start: 3, End: 9},
		{Lane: "a", Start: 1, End: 4},
	}
	from, to := Window(spans)
	if from != 1 || to != 9 {
		t.Errorf("Window = %v..%v, want 1..9", from, to)
	}
	if got := Lanes(spans); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Lanes = %v", got)
	}
	if from, to := Window(nil); from != 0 || to != 0 {
		t.Errorf("empty Window = %v..%v", from, to)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.steps").Add(3)
	r.Counter("engine.steps").Add(2) // same instrument
	r.Gauge("engine.tokens_per_sec").Set(123.5)
	snap := r.Snapshot()
	if snap["engine.steps"] != 5 {
		t.Errorf("steps = %v, want 5", snap["engine.steps"])
	}
	if snap["engine.tokens_per_sec"] != 123.5 {
		t.Errorf("tokens/s = %v", snap["engine.tokens_per_sec"])
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "engine.steps" {
		t.Errorf("Names = %v", names)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	if r.Snapshot() != nil || r.Names() != nil {
		t.Error("nil registry returned data")
	}
	r.PublishExpvar("never-published")
	var c *Counter
	var g *Gauge
	c.Add(1)
	g.Set(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments hold values")
	}
}

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("pool.jobs").Add(7)
	r.PublishExpvar("ratel-test-metrics")
	v := expvar.Get("ratel-test-metrics")
	if v == nil {
		t.Fatal("expvar variable not published")
	}
	var decoded map[string]float64
	if err := json.Unmarshal([]byte(v.String()), &decoded); err != nil {
		t.Fatalf("expvar output not JSON: %v", err)
	}
	if decoded["pool.jobs"] != 7 {
		t.Errorf("expvar snapshot = %v", decoded)
	}
	// Live: later updates appear in subsequent reads.
	r.Counter("pool.jobs").Add(1)
	if err := json.Unmarshal([]byte(v.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["pool.jobs"] != 8 {
		t.Errorf("expvar snapshot not live: %v", decoded)
	}
}
