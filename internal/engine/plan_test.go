package engine

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/obs"
)

// planCase is one placement the step plan is checked on.
type planCase struct {
	name   string
	layers int
	swap   map[int]Tier
	depth  int
	syncIO bool // the oracleSyncIO reference: read-ahead distance 0
}

// planCases are the four benchmark workloads' placements (and a gapped SSD
// one) at depths 1 to 3, an all-host placement, a trailing Recompute block
// behind swapped ones, and two placements at read-ahead distance 0.
func planCases() []planCase {
	accum := map[int]Tier{0: SwapSSD, 1: SwapHost, 3: SwapSSD}
	var out []planCase
	for _, w := range []struct {
		name   string
		layers int
		swap   map[int]Tier
	}{
		{"io_mixed", 6, allSSD(6)},
		{"opt_stream", 4, nil},
		{"compute", 4, map[int]Tier{0: SwapHost, 2: SwapHost}},
		{"accum_ckpt_file", 4, accum},
		{"gapped-ssd", 6, map[int]Tier{0: SwapSSD, 2: SwapSSD, 4: SwapSSD}},
	} {
		for depth := 1; depth <= 3; depth++ {
			out = append(out, planCase{fmt.Sprintf("%s/depth%d", w.name, depth), w.layers, w.swap, depth, false})
		}
	}
	return append(out,
		planCase{"all-host/depth2", 4, map[int]Tier{0: SwapHost, 1: SwapHost, 2: SwapHost, 3: SwapHost}, 2, false},
		planCase{"trailing-recompute/depth2", 4, map[int]Tier{0: SwapSSD, 1: SwapHost, 2: SwapSSD}, 2, false},
		planCase{"ahead0/io_mixed/depth2", 6, allSSD(6), 2, true},
		planCase{"ahead0/accum_ckpt_file/depth1", 4, accum, 1, true},
	)
}

func (pc planCase) plan() []cell {
	ahead := pc.depth
	if pc.syncIO {
		ahead = 0
	}
	return stepPlan(pc.swap, pc.layers, pc.depth, ahead)
}

// computeLabel is the compute-lane span a cell records, "" for a cell that
// records none there.
func computeLabel(c cell, labels []blockLabels) string {
	switch c.op {
	case opEmbed:
		return labelEmbedFwd
	case opForward:
		return labels[c.block].fwd
	case opHead:
		return labelHeadFwd
	case opLoss:
		return labelLoss
	case opHeadBackward:
		return labelHeadBwd
	case opRecompute:
		return labels[c.block].recompute
	case opBackward:
		return labels[c.block].bwd
	case opEmbedBackward:
		return labelEmbedBwd
	}
	return ""
}

// planLines renders a step of micro micro-batches in stepplan.golden's
// vocabulary: "compute <span>" for a compute cell, and the block (for grads,
// the parameter group) of every other cell. Only the last micro-batch hands
// groups to the optimizer.
func planLines(p []cell, layers, micro int) []string {
	labels := makeBlockLabels(layers)
	var out []string
	for m := 0; m < micro; m++ {
		for _, c := range p {
			line := map[op]string{
				opOffload: "offload", opPin: "pin", opRelease: "release", opBarrier: "barrier",
				opFetch: "fetch", opConsume: "consume", opRevive: "revive", opGrads: "grads",
			}[c.op]
			switch {
			case line == "":
				line = "compute " + computeLabel(c, labels)
			case c.op == opGrads:
				if m < micro-1 {
					continue
				}
				line += fmt.Sprintf(" %d", c.block+1)
			case c.op != opBarrier:
				line += fmt.Sprintf(" %d", c.block)
			}
			if c.resident {
				line += " resident"
			}
			out = append(out, line)
		}
	}
	return out
}

// TestStepPlanGolden: the plan is the step the engine ran before it had one.
// testdata/stepplan.golden was logged from the hand-written step that
// preceded the plan — every compute span, every window offload, launched
// fetch and consume (marked resident when the slot still held the blob), host
// pin and revive, scope release, the barrier and every group handed to the
// optimizer, in call order, for each planCase with one and two micro-batches.
func TestStepPlanGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/stepplan.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][]string{}
	var name string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if h, ok := strings.CutPrefix(line, "# "); ok {
			name = h
			continue
		}
		golden[name] = append(golden[name], line)
	}
	seen := 0
	for _, pc := range planCases() {
		for micro := 1; micro <= 2; micro++ {
			key := fmt.Sprintf("%s/micro%d", pc.name, micro)
			want, ok := golden[key]
			if !ok {
				t.Errorf("%s: not in the golden", key)
				continue
			}
			seen++
			got := planLines(pc.plan(), pc.layers, micro)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s: plan\n%s\nwant\n%s", key, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
	if seen != len(golden) {
		t.Errorf("checked %d of the golden's %d cases", seen, len(golden))
	}
}

// TestStepPlanMatchesTrace: the engine runs the plan of its placement, depth
// and read-ahead distance, and a traced step's compute lane is the plan's
// compute cells, in order, once per micro-batch.
func TestStepPlanMatchesTrace(t *testing.T) {
	for _, pc := range planCases() {
		for micro := 1; micro <= 2; micro++ {
			model := miniConfigWith(pc.layers)
			tr := obs.NewTracer(0)
			e := newEngine(t, Config{Model: model, GradMode: agoffload.Optimized, Swap: pc.swap, PipelineDepth: pc.depth, Tracer: tr, oracleSyncIO: pc.syncIO})
			if _, err := e.TrainStepAccum(microBatches(model, micro)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(e.plan, pc.plan()) {
				t.Fatalf("%s: the engine built another plan", pc.name)
			}
			var want, got []string
			for m := 0; m < micro; m++ {
				for _, c := range e.plan {
					if l := computeLabel(c, e.labels); l != "" {
						want = append(want, l)
					}
				}
			}
			for _, s := range tr.Spans() {
				if s.Lane == obs.LaneCompute {
					got = append(got, s.Name)
				}
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s/micro%d: compute spans\n%v\nplan\n%v", pc.name, micro, got, want)
			}
		}
	}
}
