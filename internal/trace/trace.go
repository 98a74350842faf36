// Package trace renders simulated iteration timelines as text: a per-resource
// Gantt strip and the per-stage PCIe/SSD utilization breakdown the paper
// annotates Fig. 1 with.
package trace

import (
	"fmt"
	"strings"

	"ratel/internal/sim"
	"ratel/internal/units"
)

// StageWindows marks the stage boundaries on a timeline.
type StageWindows struct {
	ForwardEnd  units.Seconds
	BackwardEnd units.Seconds
	End         units.Seconds
}

// resourceOrder fixes the row order of rendered timelines.
var resourceOrder = []sim.ResourceID{
	sim.GPUCompute, sim.PCIeM2G, sim.PCIeG2M, sim.SSDBus, sim.CPUAdam,
}

// Gantt renders one character row per resource, where each column covers
// makespan/width seconds and is drawn with a density glyph by busy fraction.
func Gantt(res sim.Result, width int) string {
	if width < 10 {
		width = 10
	}
	if res.Makespan <= 0 {
		return "(empty timeline)\n"
	}
	col := res.Makespan / units.Seconds(width)
	var b strings.Builder
	for _, r := range resourceOrder {
		fmt.Fprintf(&b, "%-9s|", r)
		for i := 0; i < width; i++ {
			from := units.Seconds(i) * col
			busy := float64(res.WindowBusy(r, from, from+col)) / float64(col)
			switch {
			case busy > 0.75:
				b.WriteByte('#')
			case busy > 0.40:
				b.WriteByte('+')
			case busy > 0.05:
				b.WriteByte('.')
			default:
				b.WriteByte(' ')
			}
		}
		fmt.Fprintf(&b, "| %4.1f%%\n", 100*res.Utilization(r))
	}
	fmt.Fprintf(&b, "%-9s 0s%*s\n", "", width, res.Makespan.String())
	return b.String()
}

// StageUtilization reports, per stage, the fraction of the stage window each
// resource was busy (the Fig. 1 labels, e.g. "PCIeM2G: 8%").
func StageUtilization(res sim.Result, w StageWindows) map[string]map[sim.ResourceID]float64 {
	stages := map[string][2]units.Seconds{
		"forward":   {0, w.ForwardEnd},
		"backward":  {w.ForwardEnd, w.BackwardEnd},
		"optimizer": {w.BackwardEnd, w.End},
	}
	out := make(map[string]map[sim.ResourceID]float64, len(stages))
	for name, win := range stages {
		span := win[1] - win[0]
		m := make(map[sim.ResourceID]float64, len(resourceOrder))
		for _, r := range resourceOrder {
			if span > 0 {
				m[r] = float64(res.WindowBusy(r, win[0], win[1])) / float64(span)
			}
		}
		out[name] = m
	}
	return out
}

// FormatStageUtilization renders StageUtilization as aligned text rows in a
// stable order.
func FormatStageUtilization(res sim.Result, w StageWindows) string {
	util := StageUtilization(res, w)
	var b strings.Builder
	for _, stage := range []string{"forward", "backward", "optimizer"} {
		m := util[stage]
		fmt.Fprintf(&b, "%-9s", stage)
		for _, r := range resourceOrder {
			fmt.Fprintf(&b, "  %s=%3.0f%%", r, 100*m[r])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
