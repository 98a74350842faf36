package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ratel/internal/engine"
	"ratel/internal/obs"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if _, err := tailPercentile(samples[:99], 0.90); err == nil {
		t.Error("p90 of 99 samples accepted, want refused")
	}
	got, err := tailPercentile(samples, 0.90)
	if err != nil {
		t.Fatalf("p90 of 100 samples refused: %v", err)
	}
	if got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
	if samples[0] != 100 {
		t.Error("tailPercentile reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestBudgetPartitionsOverlappingSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []obs.Span{
		{Lane: obs.LaneStep, Name: "step", Start: ms(0), End: ms(100)},
		{Lane: obs.LaneStep, Name: "forward-end", Start: ms(30), End: ms(30)}, // marker, not a step
		{Lane: obs.LaneCompute, Name: "fwd", Start: ms(0), End: ms(30)},
		{Lane: obs.LaneNVMeWrite, Name: "w", Start: ms(10), End: ms(50)},   // 20 ms hidden behind compute
		{Lane: obs.LaneStall, Name: "stall", Start: ms(40), End: ms(45)},   // over the write
		{Lane: obs.LaneAdam, Name: "adam", Start: ms(48), End: ms(60)},     // 2 ms over the write
		{Lane: obs.LaneNVMeRead, Name: "r", Start: ms(55), End: ms(70)},    // 5 ms under adam
		{Lane: obs.LaneNVMeRead, Name: "r2", Start: ms(65), End: ms(80)},   // overlaps r
		{Lane: obs.LaneCompute, Name: "late", Start: ms(95), End: ms(120)}, // clipped at the window
		{Lane: obs.LanePrefetch, Name: "ignored", Start: ms(0), End: ms(100)},
	}
	from, to, steps := stepWindow(spans)
	if from != 0 || to != ms(100) || steps != 1 {
		t.Fatalf("stepWindow = %v..%v, %d steps; want 0..100ms, 1", from, to, steps)
	}
	b := foldSpans(spans, from, to)
	want := budget{window: ms(100), compute: ms(35), stall: ms(5), adam: ms(12), nvme: ms(10 + 3 + 20), idle: ms(15)}
	want.busy = [numLaneClasses]time.Duration{ms(35), ms(5), ms(12), ms(25), ms(40)}
	if b != want {
		t.Errorf("foldSpans =\n %+v, want\n %+v", b, want)
	}
	if sum := b.compute + b.stall + b.adam + b.nvme + b.idle; sum != b.window {
		t.Errorf("exclusive budget sums to %v of a %v window", sum, b.window)
	}
	if pct := b.pct(b.compute) + b.pct(b.stall) + b.pct(b.adam) + b.pct(b.nvme) + b.pct(b.idle); math.Abs(pct-100) > 1e-9 {
		t.Errorf("budget percentages sum to %v", pct)
	}
}

func TestSpeedScaleScalesOnlyCPUTime(t *testing.T) {
	// Two marks one second apart on a machine at half the reference speed.
	t0 := time.Unix(0, 0)
	a := mark{ref: 2 * refNominal, end: t0}
	b := mark{ref: 2 * refNominal, start: t0.Add(time.Second)}
	for _, c := range []struct {
		cpu  time.Duration
		want float64
	}{
		{0, 1},                         // asleep throughout: as measured
		{500 * time.Millisecond, 0.75}, // half busy: only that half is scaled
		{time.Second, 0.5},             // busy throughout
		{1500 * time.Millisecond, 0.5}, // two threads overlapped: capped at the wall time
	} {
		b.cpu0 = c.cpu
		if got := speedScale(a, b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("cpu %v of 1 s at half speed: scale %v, want %v", c.cpu, got, c.want)
		}
	}
	a.ref, b.ref = refNominal/2, 3*refNominal/2 // the two readings are averaged
	if got := speedScale(a, b); got != 1 {
		t.Errorf("at the reference speed: scale %v, want 1", got)
	}
	if got := speedScale(b, a); got != 1 {
		t.Errorf("empty interval: scale %v, want 1", got)
	}
}

func TestBatchesAreAPureFunctionOfTheSeed(t *testing.T) {
	m := workloads[0].model
	a, b := genBatches(m, 7), genBatches(m, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different batches")
	}
	if reflect.DeepEqual(a, genBatches(m, 8)) {
		t.Error("different seeds gave the same batches")
	}
	if len(a) != batchPool {
		t.Fatalf("%d batches, want %d", len(a), batchPool)
	}
	for _, batch := range a {
		for r := range batch.Tokens {
			if len(batch.Tokens[r]) != m.Seq || len(batch.Targets[r]) != m.Seq {
				t.Fatalf("sequence length %d/%d, want %d", len(batch.Tokens[r]), len(batch.Targets[r]), m.Seq)
			}
			for s := 0; s+1 < m.Seq; s++ {
				if batch.Targets[r][s] != batch.Tokens[r][s+1] {
					t.Fatal("target is not the next token")
				}
			}
			for _, tok := range batch.Targets[r] {
				if tok < 0 || tok >= m.Vocab {
					t.Fatalf("token %d outside vocabulary %d", tok, m.Vocab)
				}
			}
		}
	}
}

func TestWorkloadConfigsAreValid(t *testing.T) {
	for _, w := range workloads {
		if err := w.model.Validate(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for block := range w.swap {
			if block < 0 || block >= w.model.Layers {
				t.Errorf("%s: swap names block %d of %d", w.name, block, w.model.Layers)
			}
		}
		if w.steps < driverSteps {
			t.Errorf("%s: %d steps cannot carry a p90", w.name, w.steps)
		}
	}
}

// benchmarkFile is BENCHMARK.json at the repository root, which must list
// what this package measures.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestNamesAndBenchmarkFile(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		checkName(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		checkName(s.Name)
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q does not match %v", s.Name, s.Unit, unitRE)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better = %q", s.Name, s.Better)
		}
	}
	for _, name := range probeMetrics {
		if !seen[name] {
			t.Errorf("probe metric %q is not in the per-layer table", name)
		}
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d = %+v, harness has %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	// step_fail_share is reported to the driver as failed/attempted.
	var want []metricSpec
	for _, s := range endToEnd {
		if s.Name != failShare {
			want = append(want, s)
		}
	}
	if len(bf.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, want %d", len(bf.EndToEnd), len(want))
	}
	for i, s := range want {
		got := bf.EndToEnd[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better || got.Bound != s.Bound {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, harness has %+v", i, got, s)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, harness has %+v", i, got, s)
		}
	}
}

// fixtureResult is a two-workload result with every end-to-end metric.
func fixtureResult() result {
	r := result{Schema: resultSchema, Machine: thisMachine(), Seed: 3, WallS: 12.5}
	for i, name := range []string{"io_mixed", "compute"} {
		w := workloadResult{Name: name, Steps: 100, TracedSteps: 40, Attempted: 100,
			LossFirst: 4, LossLast: 1, LossTraceHash: "00000000deadbeef", EndToEnd: metrics{}, PerLayer: metrics{}}
		w.EndToEnd.set(endToEnd, "tokens_per_s", 900+100*float64(i))
		w.EndToEnd.set(endToEnd, "step_ms_p50", 140)
		w.EndToEnd.set(endToEnd, "step_ms_p90", 150)
		w.EndToEnd.set(endToEnd, "setup_s", 0.1)
		w.EndToEnd.set(endToEnd, "allocs_per_step", 100)
		w.EndToEnd.set(endToEnd, failShare, 0)
		w.PerLayer.set(perLayer, "engine.compute_pct", 15.25)
		w.addCheck("loss_fell", true, "4 -> 1")
		r.Workloads = append(r.Workloads, w)
	}
	return r
}

func TestResultRoundTrips(t *testing.T) {
	want := fixtureResult()
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResult(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
}

func TestCompareMarksEachPair(t *testing.T) {
	a := fixtureResult()
	var out strings.Builder
	if bad := compareResults(&out, a, fixtureResult()); bad != 0 {
		t.Errorf("identical results: %d bad pairs\n%s", bad, out.String())
	}

	b := fixtureResult()
	b.Workloads[0].EndToEnd.set(endToEnd, "tokens_per_s", 900*0.8) // 20 % slower: worse
	b.Workloads[0].EndToEnd.set(endToEnd, "step_ms_p50", 140*0.8)  // 20 % faster: better
	b.Workloads[0].EndToEnd.set(endToEnd, "setup_s", 0.2)          // +0.1 s, under the 0.15 s floor: ok
	b.Workloads[0].EndToEnd.set(endToEnd, "allocs_per_step", 104)  // +4, under the floor of 5: ok
	b.Workloads[1].EndToEnd.set(endToEnd, "allocs_per_step", 106)  // +6: worse
	b.Workloads[1].EndToEnd.set(endToEnd, failShare, 0.01)         // any failure: worse
	b.Workloads[1].EndToEnd.set(endToEnd, "step_ms_p90", 150*1.2)  // inside 25 %: ok
	out.Reset()
	bad := compareResults(&out, a, b)
	report := out.String()
	if bad != 3 {
		t.Errorf("%d bad pairs, want 3\n%s", bad, report)
	}
	for _, want := range []string{
		`io_mixed\s+tokens_per_s .* worse`,
		`io_mixed\s+step_ms_p50 .* better`,
		`io_mixed\s+setup_s .* ok`,
		`io_mixed\s+allocs_per_step .* ok`,
		`compute\s+allocs_per_step .* worse`,
		`compute\s+step_fail_share .* worse`,
		`compute\s+step_ms_p90 .* ok`,
		`io_mixed\s+loss_trace_hash .* same`,
	} {
		if !regexp.MustCompile(want).MatchString(report) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}

	c := fixtureResult()
	c.Workloads[1].LossTraceHash = "1111111111111111"
	delete(c.Workloads[0].EndToEnd, "step_ms_p90")
	out.Reset()
	if bad := compareResults(&out, a, c); bad != 2 {
		t.Errorf("changed hash and missing metric: %d bad pairs, want 2\n%s", bad, out.String())
	}
}

func TestLossHashAndVmHWM(t *testing.T) {
	a, b := lossHash([]float64{1, 2, 3}), lossHash([]float64{1, 2, math.Nextafter(3, 4)})
	if a == b || a != lossHash([]float64{1, 2, 3}) || len(a) != 16 {
		t.Errorf("lossHash: %q vs %q", a, b)
	}
	status := "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   84992 kB\nVmRSS:\t 100 kB\n"
	if got := parseVmHWM(strings.NewReader(status)); got != 83 {
		t.Errorf("parseVmHWM = %v MiB, want 83", got)
	}
}

// TestQuickRunsEveryWorkload drives the quick plan through the real engine
// on all four workloads, so the harness, its checks and the symbols it
// calls cannot rot unnoticed. compute runs at a quarter of its width here:
// setting up its real shape alone takes seconds, which is what the
// benchmark is there to show and a unit test is not. The four run side by
// side (two of them mostly sleep on their throttle), which keeps the test
// short; t.Parallel would cap them at GOMAXPROCS at a time.
func TestQuickRunsEveryWorkload(t *testing.T) {
	type outcome struct {
		w   workload
		res workloadResult
		err error
	}
	outcomes := make([]outcome, len(workloads))
	var wg sync.WaitGroup
	for i, w := range workloads {
		if w.name == "compute" {
			w.model.Hidden, w.model.Seq = 64, 32
		}
		p := fullPlan(w, 5, true)
		p.tmpRoot = t.TempDir()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := runWorkload(w, p, io.Discard)
			outcomes[i] = outcome{w, res, err}
		}()
	}
	wg.Wait()

	for _, o := range outcomes {
		w, res := o.w, o.res
		t.Run(w.name, func(t *testing.T) {
			if o.err != nil {
				t.Fatal(o.err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if res.Steps != quickSteps || res.TracedSteps != quickSteps || res.Failed != 0 {
				t.Errorf("steps %d, traced %d, failed %d; want %d, %d, 0", res.Steps, res.TracedSteps, res.Failed, quickSteps, quickSteps)
			}
			for _, s := range endToEnd {
				_, ok := res.EndToEnd[s.Name]
				if want := s.Name != "step_ms_p90"; ok != want { // five samples carry no p90
					t.Errorf("end-to-end %s reported = %v, want %v", s.Name, ok, want)
				}
			}
			for _, s := range perLayer {
				v, ok := res.PerLayer[s.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer %s = %+v, reported %v", s.Name, v, ok)
				}
			}
			// The blob-size formula the probes use must be the engine's.
			ssdBlocks := 0
			for _, tier := range w.swap {
				if tier == engine.SwapSSD {
					ssdBlocks++
				}
			}
			if got, want := res.PerLayer["engine.act_offload_bytes"].Value, float64(w.micro*ssdBlocks*w.blobBytes()); got != want {
				t.Errorf("engine offloads %v bytes per step, blobBytes says %v", got, want)
			}
			if w.ckptEvery > 0 && !hasCheck(res, "ckpt_resume_identical") {
				t.Error("checkpoint workload ran without the resume check")
			}
		})
	}
}

func hasCheck(res workloadResult, name string) bool {
	for _, c := range res.Checks {
		if c.Name == name {
			return true
		}
	}
	return false
}
