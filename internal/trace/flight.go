package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ratel/internal/obs"
)

// Flight-recorder dump: the crash/postmortem artifact. A dump combines the
// bounded ring of recent step records (timing + stall + byte-flow deltas),
// the metrics registry snapshot, and the tracer's span ring, serialized as
// one JSON document whose "trace" field is itself a Chrome trace-event
// array (spans as ph "X" plus per-step flow counters as ph "C"), so the
// postmortem can be opened directly in Perfetto after extracting that
// field — or parsed programmatically with ReadFlightDump.

// FlightStep is the serialized form of one obs.StepRecord: durations in
// nanoseconds, flow deltas as nested maps keyed by edge then purpose name.
type FlightStep struct {
	Step      int   `json:"step"`
	StartNS   int64 `json:"start_ns"`
	EndNS     int64 `json:"end_ns"`
	WallNS    int64 `json:"wall_ns"`
	ForwardNS int64 `json:"forward_ns"`
	BackwrdNS int64 `json:"backward_ns"`
	DrainNS   int64 `json:"optimizer_drain_ns"`
	Tokens    int   `json:"tokens"`
	Stalls    int64 `json:"offload_stalls"`
	StallNS   int64 `json:"offload_stall_wait_ns"`
	// Fetch stalls (backward blocked on a read-ahead miss) are broken out
	// from the write-behind stalls above; EffDepth is the pipeline depth in
	// force (the engine's resolved static depth).
	FetchStalls  int64                     `json:"fetch_stalls"`
	FetchStallNS int64                     `json:"fetch_stall_wait_ns"`
	EffDepth     int                       `json:"effective_depth"`
	Sched        map[string]FlightSchedRow `json:"sched,omitempty"`
	FlowBytes    map[string]int64          `json:"flow_bytes"`
}

// FlightSchedRow is one traffic class's scheduler activity in a step:
// transfers dispatched, total queue wait, and the lifetime queue-depth peak.
type FlightSchedRow struct {
	Dispatched int64 `json:"dispatched"`
	WaitNS     int64 `json:"wait_ns"`
	QueuePeak  int64 `json:"queue_peak"`
}

// FlightDump is the top-level postmortem document.
type FlightDump struct {
	Reason  string             `json:"reason"`
	Steps   []FlightStep       `json:"steps"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Trace   []ChromeEvent      `json:"trace,omitempty"`
}

// flowKey names one ledger cell in the dump: "edge/purpose" using the
// canonical snake_case names (e.g. "host_nvme_write/activations").
func flowKey(e obs.FlowEdge, p obs.FlowPurpose) string {
	return e.String() + "/" + p.String()
}

// flowMap flattens a snapshot to its non-zero cells.
func flowMap(s obs.FlowSnapshot) map[string]int64 {
	m := make(map[string]int64)
	for _, e := range obs.FlowEdges() {
		for _, p := range obs.FlowPurposes() {
			if v := s.Get(e, p); v != 0 {
				m[flowKey(e, p)] = v
			}
		}
	}
	return m
}

// schedMap flattens a scheduler sample to its active classes, keyed by the
// canonical snake_case class names.
func schedMap(s obs.SchedSample) map[string]FlightSchedRow {
	if !s.Active() {
		return nil
	}
	m := make(map[string]FlightSchedRow, obs.SchedClassCount)
	for c, d := range s {
		if d.Dispatched == 0 && d.Wait == 0 && d.QueuePeak == 0 {
			continue
		}
		m[obs.SchedClassNames[c]] = FlightSchedRow{
			Dispatched: d.Dispatched,
			WaitNS:     int64(d.Wait),
			QueuePeak:  d.QueuePeak,
		}
	}
	return m
}

// flightStep converts one ring record.
func flightStep(r obs.StepRecord) FlightStep {
	return FlightStep{
		Step:         r.Step,
		StartNS:      int64(r.Start),
		EndNS:        int64(r.End),
		WallNS:       int64(r.Wall),
		ForwardNS:    int64(r.Forward),
		BackwrdNS:    int64(r.Backward),
		DrainNS:      int64(r.OptimizerDrain),
		Tokens:       r.Tokens,
		Stalls:       int64(r.OffloadStalls),
		StallNS:      int64(r.OffloadStallWait),
		FetchStalls:  int64(r.FetchStalls),
		FetchStallNS: int64(r.FetchStallWait),
		EffDepth:     r.EffectiveDepth,
		Sched:        schedMap(r.Sched),
		FlowBytes:    flowMap(r.Flow),
	}
}

// flowCounterEvents emits one Chrome ph "C" counter sample per step on a
// dedicated "flow" thread: the per-step byte deltas for each edge, stamped
// at the step's end offset. Counter tracks render as stacked area charts
// in the trace viewer, one series per edge name.
func flowCounterEvents(steps []obs.StepRecord) []ChromeEvent {
	events := make([]ChromeEvent, 0, len(steps))
	for _, r := range steps {
		args := make(map[string]interface{}, len(obs.FlowEdges()))
		for _, e := range obs.FlowEdges() {
			args[e.String()] = r.Flow.Edge(e)
		}
		events = append(events, ChromeEvent{
			Name: "flow_bytes_per_step",
			Ph:   "C",
			TS:   float64(r.End) / float64(time.Microsecond),
			PID:  PIDEngine,
			Args: args,
		})
	}
	return events
}

// BuildFlightDump assembles the postmortem document from the engine's
// flight ring, span ring, and (optionally nil) metrics snapshot.
func BuildFlightDump(reason string, steps []obs.StepRecord, spans []obs.Span, metrics map[string]float64) FlightDump {
	d := FlightDump{
		Reason:  reason,
		Steps:   make([]FlightStep, 0, len(steps)),
		Metrics: metrics,
	}
	for _, r := range steps {
		d.Steps = append(d.Steps, flightStep(r))
	}
	if len(spans) > 0 || len(steps) > 0 {
		d.Trace = append(ChromeFromSpans(spans), flowCounterEvents(steps)...)
	}
	return d
}

// WriteFlightDump serializes a dump as indented JSON.
func WriteFlightDump(d FlightDump, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ReadFlightDump parses a dump written by WriteFlightDump and validates
// the invariants a loadable postmortem must satisfy: steps are in order,
// spans are well-formed, and every flow key names a real edge/purpose
// pair. Crash-handler output is only useful if it can actually be opened,
// so the SIGQUIT path is tested through this reader.
func ReadFlightDump(r io.Reader) (FlightDump, error) {
	var d FlightDump
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return FlightDump{}, fmt.Errorf("flight dump: %w", err)
	}
	valid := make(map[string]bool)
	for _, e := range obs.FlowEdges() {
		for _, p := range obs.FlowPurposes() {
			valid[flowKey(e, p)] = true
		}
	}
	classes := make(map[string]bool, obs.SchedClassCount)
	for _, n := range obs.SchedClassNames {
		classes[n] = true
	}
	for i, s := range d.Steps {
		if i > 0 && s.Step <= d.Steps[i-1].Step {
			return FlightDump{}, fmt.Errorf("flight dump: steps out of order at index %d", i)
		}
		for k := range s.FlowBytes {
			if !valid[k] {
				return FlightDump{}, fmt.Errorf("flight dump: unknown flow key %q", k)
			}
		}
		for k := range s.Sched {
			if !classes[k] {
				return FlightDump{}, fmt.Errorf("flight dump: unknown sched class %q", k)
			}
		}
	}
	for i, ev := range d.Trace {
		switch ev.Ph {
		case "X", "M", "C":
		default:
			return FlightDump{}, fmt.Errorf("flight dump: unknown event phase %q at index %d", ev.Ph, i)
		}
	}
	return d, nil
}
