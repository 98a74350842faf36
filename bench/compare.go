package main

import (
	"fmt"
	"io"
	"math"

	"ratel/internal/benchdiff"
)

// benchdiff infers which way a metric regresses from its column name.
// These are a cost column and a rate column in its vocabulary.
const (
	costColumn = "ns_per_op"
	rateColumn = "per_s"
)

// snapshotOf lays a result's end-to-end metrics out as benchdiff rows, one
// per (workload, metric), so its direction-aware relative change does the
// comparing.
func snapshotOf(r result) benchdiff.Snapshot {
	var snap benchdiff.Snapshot
	for _, w := range r.Workloads {
		for _, spec := range endToEnd {
			m, ok := w.EndToEnd[spec.Name]
			if !ok {
				continue
			}
			col := rateColumn
			if spec.Better == "lower" {
				col = costColumn
			}
			snap.Rows = append(snap.Rows, benchdiff.Row{
				Bench: w.Name, Variant: spec.Name, Metrics: map[string]float64{col: m.Value},
			})
		}
	}
	return snap
}

// compareResults prints every (workload, end-to-end metric) pair of a
// (the parent) and b (the change) with the delta and its bound, and
// returns how many pairs are worse than the bound allows, are missing from
// b, or trained to different values.
func compareResults(out io.Writer, a, b result) int {
	rep := benchdiff.Diff(snapshotOf(a), snapshotOf(b), 0)
	bad := 0
	fmt.Fprintf(out, "%-16s %-16s %14s %14s %9s %9s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "")
	for _, d := range rep.Deltas {
		spec, _ := findSpec(endToEnd, d.Variant) // rows are built from endToEnd
		// The bound is relative with an absolute floor, both in the
		// metric's own unit: max(Bound x a, Floor).
		allowed := spec.Bound
		if d.Old != 0 {
			allowed = math.Max(allowed, spec.Floor/math.Abs(d.Old))
		}
		mark := "ok"
		switch {
		case d.Rel > allowed:
			mark = "worse"
			bad++
		case d.Rel < -allowed:
			mark = "better"
		}
		// Rel is positive when worse; show the change in the metric's own
		// direction.
		delta := d.Rel
		if spec.Better == "higher" {
			delta = -delta
		}
		fmt.Fprintf(out, "%-16s %-16s %14.4f %14.4f %+8.2f%% %8.2f%%  %s\n",
			d.Bench, d.Variant, d.Old, d.New, 100*delta, 100*allowed, mark)
	}
	for _, k := range rep.Missing {
		fmt.Fprintf(out, "%s: in a only  worse\n", k)
		bad++
	}
	for _, k := range rep.Added {
		fmt.Fprintf(out, "%s: in b only\n", k)
	}

	inB := make(map[string]workloadResult, len(b.Workloads))
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		switch {
		case !ok:
		case a.Seed != b.Seed || wa.Steps != wb.Steps:
			fmt.Fprintf(out, "%-16s loss_trace_hash not comparable: seeds or step counts differ\n", wa.Name)
		case wa.LossTraceHash == wb.LossTraceHash:
			fmt.Fprintf(out, "%-16s loss_trace_hash %s  same\n", wa.Name, wa.LossTraceHash)
		default:
			fmt.Fprintf(out, "%-16s loss_trace_hash %s vs %s  DIFFERS: the runs trained to different values\n",
				wa.Name, wa.LossTraceHash, wb.LossTraceHash)
			bad++
		}
	}
	return bad
}
