package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ratel/internal/obs"
)

func sampleSteps() []obs.StepRecord {
	led := obs.NewFlowLedger()
	led.Add(obs.EdgeHostNVMeWrite, obs.FlowActivations, 4096)
	led.Add(obs.EdgeComputeHost, obs.FlowGrads, 512)
	flow := led.Snapshot()
	return []obs.StepRecord{
		{
			Step: 1, Start: 0, End: 10 * time.Millisecond,
			Wall: 10 * time.Millisecond, Forward: 4 * time.Millisecond,
			Backward: 5 * time.Millisecond, OptimizerDrain: time.Millisecond,
			Tokens: 64, Flow: flow,
		},
		{
			Step: 2, Start: 10 * time.Millisecond, End: 21 * time.Millisecond,
			Wall: 11 * time.Millisecond, Forward: 4 * time.Millisecond,
			Backward: 6 * time.Millisecond, OptimizerDrain: time.Millisecond,
			Tokens: 64, OffloadStalls: 1, OffloadStallWait: 2 * time.Millisecond, Flow: flow,
		},
	}
}

func TestFlightDumpRoundTrip(t *testing.T) {
	spans := []obs.Span{
		{Lane: obs.LaneCompute, Name: "block0/fwd", Start: 0, End: 4 * time.Millisecond},
		{Lane: obs.LaneStall, Name: "block1/fetch-stall", Start: 4 * time.Millisecond, End: 5 * time.Millisecond},
		{Lane: obs.LaneOffload, Name: "block0/offload", Start: time.Millisecond, End: 3 * time.Millisecond},
	}
	metrics := map[string]float64{"engine.steps": 2}
	dump := BuildFlightDump("sigquit", sampleSteps(), spans, metrics)

	var buf strings.Builder
	if err := WriteFlightDump(dump, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightDump(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("dump not loadable: %v", err)
	}
	if got.Reason != "sigquit" {
		t.Errorf("reason = %q, want sigquit", got.Reason)
	}
	if len(got.Steps) != 2 || got.Steps[1].Step != 2 {
		t.Fatalf("steps = %+v, want 2 records ending at step 2", got.Steps)
	}
	if got.Steps[0].FlowBytes["host_nvme_write/activations"] != 4096 {
		t.Errorf("flow bytes = %v, want host_nvme_write/activations=4096", got.Steps[0].FlowBytes)
	}
	if got.Steps[1].StallNS != int64(2*time.Millisecond) {
		t.Errorf("stall wait = %d, want 2ms", got.Steps[1].StallNS)
	}
	if got.Metrics["engine.steps"] != 2 {
		t.Errorf("metrics snapshot lost: %v", got.Metrics)
	}
}

// TestFlightDumpTraceLanes pins that the embedded Chrome trace carries the
// flow counter samples and the new stall/flow lanes so the postmortem is
// viewable, not just parseable.
func TestFlightDumpTraceLanes(t *testing.T) {
	spans := []obs.Span{
		{Lane: obs.LaneStall, Name: "block2/fetch-stall", Start: 0, End: time.Millisecond},
	}
	dump := BuildFlightDump("panic", sampleSteps(), spans, nil)

	var counters, stalls int
	for _, ev := range dump.Trace {
		switch {
		case ev.Ph == "C" && ev.Name == "flow_bytes_per_step":
			counters++
			if v, ok := ev.Args["host_nvme_write"].(int64); !ok || v != 4096 {
				t.Errorf("counter args = %v, want host_nvme_write=4096", ev.Args)
			}
		case ev.Ph == "X" && ev.Name == "block2/fetch-stall":
			stalls++
		}
	}
	if counters != 2 {
		t.Errorf("got %d flow counter events, want one per step (2)", counters)
	}
	if stalls != 1 {
		t.Errorf("fetch-stall span missing from embedded trace")
	}

	// Round-trip keeps the counter events decodable.
	var buf strings.Builder
	if err := WriteFlightDump(dump, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightDump(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace) != len(dump.Trace) {
		t.Errorf("trace events: got %d, want %d", len(got.Trace), len(dump.Trace))
	}
}

func TestReadFlightDumpRejectsMalformed(t *testing.T) {
	if _, err := ReadFlightDump(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadFlightDump(strings.NewReader(
		`{"reason":"x","steps":[{"step":1,"flow_bytes":{"bogus/edge":1}}]}`)); err == nil {
		t.Error("unknown flow key accepted")
	}
	if _, err := ReadFlightDump(strings.NewReader(
		`{"reason":"x","steps":[{"step":2},{"step":1}]}`)); err == nil {
		t.Error("out-of-order steps accepted")
	}
}

// FuzzReadFlightDump feeds the postmortem reader documents of any content —
// what a crash handler cut short, or a hand-edited dump, would hold. It must
// never panic, and a dump it accepts must survive WriteFlightDump and be
// accepted again: what the reader lets in, the tools can round-trip.
func FuzzReadFlightDump(f *testing.F) {
	spans := []obs.Span{
		{Lane: obs.LaneCompute, Name: "block0/fwd", Start: 0, End: 4 * time.Millisecond},
		{Lane: obs.LaneStall, Name: "block1/fetch-stall", Start: 4 * time.Millisecond, End: 5 * time.Millisecond},
	}
	for _, d := range []FlightDump{
		BuildFlightDump("sigquit", sampleSteps(), spans, map[string]float64{"engine.steps": 2}),
		BuildFlightDump("panic", sampleSteps(), nil, nil),
		BuildFlightDump("empty", nil, nil, nil),
	} {
		var buf strings.Builder
		if err := WriteFlightDump(d, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(buf.String()))
		f.Add([]byte(buf.String()[:buf.Len()/2]))
	}
	f.Add([]byte("not json"))
	f.Add([]byte(`{"reason":"x","steps":[{"step":1,"flow_bytes":{"bogus/edge":1}}]}`))
	f.Add([]byte(`{"reason":"x","steps":[{"step":2},{"step":1}]}`))
	f.Add([]byte(`{"steps":[{"step":1,"sched":{"nope":{}}}],"trace":[{"ph":"Q"}]}`))

	f.Fuzz(func(t *testing.T, doc []byte) {
		d, err := ReadFlightDump(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFlightDump(d, &buf); err != nil {
			t.Fatalf("an accepted dump does not re-encode: %v", err)
		}
		if _, err := ReadFlightDump(&buf); err != nil {
			t.Fatalf("an accepted dump is refused after a round trip: %v", err)
		}
	})
}
