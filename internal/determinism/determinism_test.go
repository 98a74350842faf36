// Package determinism_test is a regression gate for the repo's core
// guarantee: the planner and the discrete-event simulator are pure
// functions of their inputs. Two back-to-back runs must produce
// byte-identical plan descriptions, trace JSON and the figures programs
// print from the simulated schedule — any divergence means map-iteration
// order, wall-clock reads, or scheduling races leaked into results (exactly
// what the simdet analyzer exists to keep out).
package determinism_test

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"ratel/internal/capacity"
	"ratel/internal/hw"
	"ratel/internal/itersim"
	"ratel/internal/model"
	"ratel/internal/plan"
	"ratel/internal/sim"
	"ratel/internal/strategy"
	"ratel/internal/trace"
	"ratel/internal/units"
)

// artifacts is one full planner+simulator run rendered to bytes.
type artifacts struct {
	planDesc   string
	traceJSON  []byte
	chromeJSON []byte
	figures    string
}

// figures renders what programs print from a simulated schedule beyond its
// trace — the critical path and its per-resource shares (ratelplan), and the
// per-stage utilization, which reads WindowBusy (fig1,
// ratel.StageBreakdown) — with every float as its bits, so a difference in
// the last bit shows. These are where simdet's three findings were.
func figures(rep itersim.Report) string {
	var b strings.Builder
	bits := func(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }
	path := sim.CriticalPath(rep.Result)
	for _, s := range path {
		fmt.Fprintf(&b, "path %d %s %s %s\n", s.Task.ID, s.Task.Resource, bits(float64(s.Start)), bits(float64(s.End)))
	}
	shares := sim.ResourceShares(path)
	resources := make([]string, 0, len(shares))
	for r := range shares {
		resources = append(resources, string(r))
	}
	sort.Strings(resources)
	for _, r := range resources {
		fmt.Fprintf(&b, "share %s %s\n", r, bits(shares[sim.ResourceID(r)]))
	}
	util := trace.StageUtilization(rep.Result, trace.StageWindows{
		ForwardEnd: rep.ForwardEnd, BackwardEnd: rep.BackwardEnd, End: rep.Makespan,
	})
	for _, stage := range []string{"forward", "backward", "optimizer"} {
		resources = resources[:0]
		for r := range util[stage] {
			resources = append(resources, string(r))
		}
		sort.Strings(resources)
		for _, r := range resources {
			fmt.Fprintf(&b, "util %s %s %s\n", stage, r, bits(util[stage][sim.ResourceID(r)]))
		}
	}
	return b.String()
}

func runOnce(t *testing.T) artifacts {
	t.Helper()
	cfg := model.MustByName("13B")
	srv := hw.EvalServer(hw.RTX4090, 768*units.GiB, 12)
	const batch = 32

	profile := capacity.PlannerProfile(strategy.Ratel, cfg, batch, srv)
	pl, err := plan.Optimize(profile)
	if err != nil {
		t.Fatalf("plan.Optimize: %v", err)
	}

	rep, err := itersim.Simulate(strategy.Ratel, cfg, batch, srv)
	if err != nil {
		t.Fatalf("itersim.Simulate: %v", err)
	}

	var tj bytes.Buffer
	if err := trace.WriteJSON(rep.Result, &tj); err != nil {
		t.Fatalf("trace.WriteJSON: %v", err)
	}
	var cj bytes.Buffer
	if err := trace.WriteChrome(trace.ChromeFromSim(rep.Result), &cj); err != nil {
		t.Fatalf("trace.WriteChrome: %v", err)
	}
	return artifacts{planDesc: pl.Describe(), traceJSON: tj.Bytes(), chromeJSON: cj.Bytes(), figures: figures(rep)}
}

func TestPlannerAndSimulatorAreDeterministic(t *testing.T) {
	first := runOnce(t)
	second := runOnce(t)
	if !strings.Contains(first.figures, "path ") || !strings.Contains(first.figures, "util backward ") {
		t.Fatalf("the figures miss the critical path or the stage utilization:\n%s", first.figures)
	}

	if first.planDesc != second.planDesc {
		t.Errorf("plan description differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			first.planDesc, second.planDesc)
	}
	if !bytes.Equal(first.traceJSON, second.traceJSON) {
		t.Errorf("trace JSON differs between identical runs (%d vs %d bytes)",
			len(first.traceJSON), len(second.traceJSON))
	}
	if !bytes.Equal(first.chromeJSON, second.chromeJSON) {
		t.Errorf("Chrome trace JSON differs between identical runs (%d vs %d bytes)",
			len(first.chromeJSON), len(second.chromeJSON))
	}
	if first.figures != second.figures {
		t.Errorf("critical path, resource shares or stage utilization differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			first.figures, second.figures)
	}
}
