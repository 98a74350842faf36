package main

import (
	"sort"
	"time"

	"ratel/internal/obs"
)

// laneClass is a resource a traced span occupies, in budget priority
// order: when several are busy at once the instant is charged to the first.
type laneClass int

const (
	classCompute laneClass = iota
	classStall
	classAdam
	classNVMeRead
	classNVMeWrite
	numLaneClasses
)

func classOf(lane string) (laneClass, bool) {
	switch lane {
	case obs.LaneCompute:
		return classCompute, true
	case obs.LaneStall:
		return classStall, true
	case obs.LaneAdam:
		return classAdam, true
	case obs.LaneNVMeRead:
		return classNVMeRead, true
	case obs.LaneNVMeWrite:
		return classNVMeWrite, true
	}
	return 0, false
}

// budget is a traced window folded two ways. busy is each lane's interval
// union, so lanes that overlap are each counted in full. The exclusive
// fields partition the window: every instant is charged once, to compute
// if any compute span covers it, else to a stall, else to CPU Adam, else
// to NVMe, else to idle. "Exposed" time is therefore time a resource was
// busy while compute was not: what the paper's overlap should drive to zero.
type budget struct {
	window time.Duration
	busy   [numLaneClasses]time.Duration

	compute, stall, adam, nvme, idle time.Duration
}

// foldSpans computes the budget of spans clipped to [from, to).
func foldSpans(spans []obs.Span, from, to time.Duration) budget {
	b := budget{window: to - from}
	if b.window <= 0 {
		return budget{}
	}
	type edge struct {
		at    time.Duration
		class laneClass
		delta int
	}
	var edges []edge
	for _, s := range spans {
		c, ok := classOf(s.Lane)
		if !ok {
			continue
		}
		lo, hi := max(s.Start, from), min(s.End, to)
		if hi > lo {
			edges = append(edges, edge{lo, c, 1}, edge{hi, c, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })

	var open [numLaneClasses]int
	at := from
	charge := func(until time.Duration) {
		d := until - at
		at = until
		if d <= 0 {
			return
		}
		for c := range open {
			if open[c] > 0 {
				b.busy[c] += d
			}
		}
		switch {
		case open[classCompute] > 0:
			b.compute += d
		case open[classStall] > 0:
			b.stall += d
		case open[classAdam] > 0:
			b.adam += d
		case open[classNVMeRead] > 0 || open[classNVMeWrite] > 0:
			b.nvme += d
		default:
			b.idle += d
		}
	}
	for _, e := range edges {
		charge(e.at)
		open[e.class] += e.delta
	}
	charge(to)
	return b
}

// pct is d's share of the window in percent.
func (b budget) pct(d time.Duration) float64 {
	if b.window <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(b.window)
}

// stepWindow is the extent of the traced steps: from the first step span's
// start to the last one's end. Zero-length markers on the step lane are
// not steps.
func stepWindow(spans []obs.Span) (from, to time.Duration, steps int) {
	for _, s := range spans {
		if s.Lane != obs.LaneStep || s.End == s.Start {
			continue
		}
		if steps == 0 || s.Start < from {
			from = s.Start
		}
		to = max(to, s.End)
		steps++
	}
	return from, to, steps
}
