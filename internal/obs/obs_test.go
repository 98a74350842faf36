package obs

import (
	"encoding/json"
	"expvar"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(16)
	sp := tr.StartSpan(LaneCompute, "block0/fwd")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.RecordSpan(LaneAdam, "head/opt-adam", 5*time.Millisecond, 7*time.Millisecond)
	tr.Instant(LaneStep, "forward-end")

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Sorted by start: the StartSpan one began at ~0.
	if spans[0].Name != "block0/fwd" || spans[0].Lane != LaneCompute {
		t.Errorf("first span = %+v", spans[0])
	}
	if spans[0].Duration() < time.Millisecond {
		t.Errorf("span duration %v, want >= 1ms", spans[0].Duration())
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
	for i := 0; i < 10; i++ {
		tr.RecordSpan(LaneCompute, "s", time.Duration(i), time.Duration(i+1))
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	// The newest four started at offsets 6..9.
	if spans[0].Start != 6 || spans[3].Start != 9 {
		t.Errorf("ring kept %v..%v, want 6..9", spans[0].Start, spans[3].Start)
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
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	sp := tr.StartSpan(LaneCompute, "x")
	sp.End()
	tr.RecordSpan(LaneAdam, "y", 0, 1)
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
// allocates nothing on the steady state, enabled or disabled. This is what
// lets instrumentation live unconditionally on engine hot paths.
func TestSpanPathAllocationFree(t *testing.T) {
	enabled := NewTracer(1024)
	var disabled *Tracer
	const label = "block0/bwd"
	if got := testing.AllocsPerRun(200, func() {
		sp := enabled.StartSpan(LaneCompute, label)
		sp.End()
	}); got != 0 {
		t.Errorf("enabled span path allocates %v per span, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		sp := disabled.StartSpan(LaneCompute, label)
		sp.End()
	}); got != 0 {
		t.Errorf("disabled span path allocates %v per span, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		enabled.RecordSpan(LaneAdam, label, 1, 2)
	}); got != 0 {
		t.Errorf("RecordSpan allocates %v per span, want 0", got)
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
				sp := tr.StartSpan(LaneAdam, "g")
				sp.End()
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
