package obs

import (
	"strings"
	"time"
)

// This file turns a recorded span window into a bottleneck verdict: which
// resource bound the step. It extends the LanesBusy interval-union
// analysis with stall classification — time the compute loop measurably
// sat blocked (LaneStall spans) is attributed to the pipeline direction
// that starved it, because a stalled step is bound by the resource it
// waited for, not by whichever lane happened to show the most busy time.

// Verdict names the resource that bound a window.
type Verdict string

const (
	VerdictComputeBound    Verdict = "compute-bound"
	VerdictNVMeReadBound   Verdict = "nvme-read-bound"
	VerdictNVMeWriteBound  Verdict = "nvme-write-bound"
	VerdictAdamBound       Verdict = "cpu-adam-bound"
	VerdictStalledReadhead Verdict = "stalled-on-readahead"
	VerdictStalledOffload  Verdict = "stalled-on-offload"
	VerdictIdle            Verdict = "idle"
)

// stallVerdictThreshold: a stall fraction above this dominates the
// busy-time comparison — the step is waiting, not working.
const stallVerdictThreshold = 0.15

// Attribution is the folded view of one window: per-resource busy time,
// stall time split by direction, and the verdict with its supporting
// fraction.
type Attribution struct {
	Window time.Duration

	ComputeBusy   time.Duration // LaneCompute interval union
	NVMeReadBusy  time.Duration // LaneNVMeRead interval union
	NVMeWriteBusy time.Duration // LaneNVMeWrite interval union
	AdamBusy      time.Duration // LaneAdam interval union

	// Stall time from LaneStall spans, split by what the loop waited for:
	// fetch stalls (readahead missed its deadline) vs offload stalls
	// (write-behind window full).
	FetchStall   time.Duration
	OffloadStall time.Duration

	Bound Verdict
	// BoundFraction is the bound resource's share of the window: busy
	// fraction for *-bound verdicts, stall fraction for stalled-* ones.
	BoundFraction float64
}

// StallFraction is total stall time over the window.
func (a Attribution) StallFraction() float64 {
	if a.Window <= 0 {
		return 0
	}
	return float64(a.FetchStall+a.OffloadStall) / float64(a.Window)
}

// fetchStallSuffix matches the engine's backward read-ahead wait labels
// ("block3/fetch-stall"); every other LaneStall span is the activation
// window's write-behind backpressure ("block3/offload-stall").
const fetchStallSuffix = "/fetch-stall"

// Attribute folds the spans inside [from, to) into an Attribution.
func Attribute(spans []Span, from, to time.Duration) Attribution {
	a := Attribution{Window: to - from}
	if a.Window <= 0 {
		a.Bound = VerdictIdle
		return a
	}
	a.ComputeBusy = LaneBusy(spans, LaneCompute, from, to)
	a.NVMeReadBusy = LaneBusy(spans, LaneNVMeRead, from, to)
	a.NVMeWriteBusy = LaneBusy(spans, LaneNVMeWrite, from, to)
	a.AdamBusy = LaneBusy(spans, LaneAdam, from, to)

	// Stall spans never overlap each other (the compute loop is serial),
	// so clipped sums — not interval unions — are exact here and let the
	// two directions be separated by label.
	for _, s := range spans {
		if s.Lane != LaneStall {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi <= lo {
			continue
		}
		if strings.HasSuffix(s.Name, fetchStallSuffix) {
			a.FetchStall += hi - lo
		} else {
			a.OffloadStall += hi - lo
		}
	}

	a.Bound, a.BoundFraction = verdict(a)
	return a
}

func verdict(a Attribution) (Verdict, float64) {
	w := float64(a.Window)
	fetchFrac := float64(a.FetchStall) / w
	offloadFrac := float64(a.OffloadStall) / w
	if fetchFrac >= stallVerdictThreshold || offloadFrac >= stallVerdictThreshold {
		if fetchFrac >= offloadFrac {
			return VerdictStalledReadhead, fetchFrac
		}
		return VerdictStalledOffload, offloadFrac
	}
	best, bestBusy := VerdictIdle, time.Duration(0)
	for _, c := range []struct {
		v    Verdict
		busy time.Duration
	}{
		{VerdictComputeBound, a.ComputeBusy},
		{VerdictNVMeReadBound, a.NVMeReadBusy},
		{VerdictNVMeWriteBound, a.NVMeWriteBusy},
		{VerdictAdamBound, a.AdamBusy},
	} {
		if c.busy > bestBusy {
			best, bestBusy = c.v, c.busy
		}
	}
	if best == VerdictIdle {
		return VerdictIdle, 0
	}
	return best, float64(bestBusy) / w
}
