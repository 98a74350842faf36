package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ratel/internal/obs"
	"ratel/internal/sim"
)

func timeline(t *testing.T) sim.Result {
	t.Helper()
	res, err := sim.Run([]sim.Task{
		{ID: 0, Label: "fwd", Resource: sim.GPUCompute, Duration: 4},
		{ID: 1, Label: "act-out", Resource: sim.PCIeG2M, Duration: 2, Deps: []int{0}},
		{ID: 2, Label: "bwd", Resource: sim.GPUCompute, Duration: 6, Deps: []int{0}},
		{ID: 3, Label: "opt", Resource: sim.CPUAdam, Duration: 3, Deps: []int{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGantt(t *testing.T) {
	out := Gantt(timeline(t), 40)
	for _, want := range []string{"gpu", "pcie-g2m", "cpu-adam", "ssd"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt missing resource row %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "#") {
		t.Error("gantt has no busy glyphs")
	}
	if got := Gantt(sim.Result{}, 40); !strings.Contains(got, "empty") {
		t.Errorf("empty timeline render = %q", got)
	}
	// Narrow widths are clamped rather than breaking.
	if out := Gantt(timeline(t), 1); !strings.Contains(out, "gpu") {
		t.Error("clamped-width gantt broken")
	}
}

func TestStageUtilization(t *testing.T) {
	res := timeline(t)
	w := StageWindows{ForwardEnd: 4, BackwardEnd: 10, End: 13}
	util := StageUtilization(res, w)
	if got := util["forward"][sim.GPUCompute]; got != 1.0 {
		t.Errorf("forward GPU util = %v, want 1.0", got)
	}
	if got := util["backward"][sim.GPUCompute]; got != 1.0 {
		t.Errorf("backward GPU util = %v, want 1.0", got)
	}
	// The activation offload runs in the first 2s of the backward window.
	if got := util["backward"][sim.PCIeG2M]; got < 0.3 || got > 0.4 {
		t.Errorf("backward G2M util = %v, want 1/3", got)
	}
	if got := util["optimizer"][sim.CPUAdam]; got != 1.0 {
		t.Errorf("optimizer CPU util = %v, want 1.0", got)
	}
	text := FormatStageUtilization(res, w)
	if !strings.Contains(text, "forward") || !strings.Contains(text, "optimizer") {
		t.Errorf("formatted breakdown missing stages:\n%s", text)
	}
}

func TestBusiestTasks(t *testing.T) {
	res := timeline(t)
	top := BusiestTasks(res, 2)
	if len(top) != 2 {
		t.Fatalf("got %d tasks, want 2", len(top))
	}
	if top[0].Task.Label != "bwd" {
		t.Errorf("busiest = %q, want bwd", top[0].Task.Label)
	}
	// Asking for more than exists returns all.
	if got := BusiestTasks(res, 99); len(got) != 4 {
		t.Errorf("BusiestTasks(99) = %d, want 4", len(got))
	}
}

func TestWriteCSV(t *testing.T) {
	var buf strings.Builder
	if err := WriteCSV(timeline(t), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines != 5 { // header + 4 tasks
		t.Errorf("csv has %d lines, want 5:\n%s", lines, out)
	}
	if !strings.HasPrefix(out, "id,label,resource,start_s,end_s,duration_s") {
		t.Errorf("csv header wrong:\n%s", out)
	}
	if !strings.Contains(out, "act-out,pcie-g2m") {
		t.Errorf("csv missing task row:\n%s", out)
	}
}

func TestWriteJSONIsChromeTraceFormat(t *testing.T) {
	var buf strings.Builder
	if err := WriteJSON(timeline(t), &buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(buf.String()), &events); err != nil {
		t.Fatalf("invalid json: %v", err)
	}
	var complete, meta []map[string]interface{}
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			complete = append(complete, ev)
		case "M":
			meta = append(meta, ev)
		default:
			t.Errorf("unexpected event phase %v", ev["ph"])
		}
	}
	if len(complete) != 4 {
		t.Fatalf("got %d complete events, want 4", len(complete))
	}
	// Metadata names the process and the five canonical resource threads.
	if len(meta) != 6 {
		t.Errorf("got %d metadata events, want 6", len(meta))
	}
	// Sorted by start time: the forward task comes first, at ts 0 with a
	// 4-second (4e6 µs) duration, and every event addresses pid/tid.
	first := complete[0]
	if first["name"] != "fwd" {
		t.Errorf("first event = %v, want fwd", first["name"])
	}
	if first["ts"] != 0.0 || first["dur"] != 4e6 {
		t.Errorf("fwd ts/dur = %v/%v, want 0/4e6 µs", first["ts"], first["dur"])
	}
	for _, ev := range complete {
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event missing pid: %v", ev)
		}
		if _, ok := ev["tid"]; !ok {
			t.Fatalf("event missing tid: %v", ev)
		}
	}
}

func TestWriteEngineJSON(t *testing.T) {
	spans := []obs.Span{
		{Lane: obs.LaneCompute, Name: "block0/bwd", Start: 0, End: 3 * time.Millisecond},
		{Lane: obs.LaneAdam, Name: "block0/opt-adam", Start: time.Millisecond, End: 2 * time.Millisecond},
	}
	var buf strings.Builder
	if err := WriteEngineJSON(spans, &buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(buf.String()), &events); err != nil {
		t.Fatalf("invalid json: %v", err)
	}
	var sawAdam bool
	for _, ev := range events {
		if ev["ph"] == "X" && ev["name"] == "block0/opt-adam" {
			sawAdam = true
			if ev["ts"] != 1e3 || ev["dur"] != 1e3 {
				t.Errorf("adam span ts/dur = %v/%v, want 1e3/1e3 µs", ev["ts"], ev["dur"])
			}
			if ev["pid"] != float64(PIDEngine) {
				t.Errorf("engine event pid = %v, want %d", ev["pid"], PIDEngine)
			}
		}
	}
	if !sawAdam {
		t.Error("engine export missing the adam span")
	}
}

// TestMergedExportSharesSchema pins the tentpole property: sim and engine
// timelines serialize to the same event schema, so one file can hold both.
func TestMergedExportSharesSchema(t *testing.T) {
	events := append(ChromeFromSim(timeline(t)), ChromeFromSpans([]obs.Span{
		{Lane: obs.LaneAdam, Name: "opt", Start: 0, End: time.Millisecond},
	})...)
	var buf strings.Builder
	if err := WriteChrome(events, &buf); err != nil {
		t.Fatal(err)
	}
	var decoded []ChromeEvent
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("merged export not decodable into the shared schema: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range decoded {
		pids[ev.PID] = true
	}
	if !pids[PIDSim] || !pids[PIDEngine] {
		t.Errorf("merged export pids = %v, want both %d and %d", pids, PIDSim, PIDEngine)
	}
}
