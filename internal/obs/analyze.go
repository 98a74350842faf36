package obs

import (
	"sort"
	"time"
)

// This file folds a recorded span timeline into the aggregate shapes the
// calibration report compares against the simulator: per-lane busy time
// (interval union, since concurrent goroutines overlap on one lane) and
// busy fractions over a window.

// LanesBusy computes the union length of all spans on any of the given
// lanes, clipped to [from, to). Overlapping spans — concurrent prefetch
// goroutines, say — are counted once, matching how the simulator's serial
// resources accumulate busy time.
func LanesBusy(spans []Span, lanes []string, from, to time.Duration) time.Duration {
	if to <= from {
		return 0
	}
	want := make(map[string]bool, len(lanes))
	for _, l := range lanes {
		want[l] = true
	}
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, s := range spans {
		if !want[s.Lane] {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var busy time.Duration
	var curLo, curHi time.Duration
	started := false
	for _, v := range ivs {
		if !started || v.lo > curHi {
			if started {
				busy += curHi - curLo
			}
			curLo, curHi, started = v.lo, v.hi, true
			continue
		}
		if v.hi > curHi {
			curHi = v.hi
		}
	}
	if started {
		busy += curHi - curLo
	}
	return busy
}

// LaneBusy is LanesBusy for a single lane.
func LaneBusy(spans []Span, lane string, from, to time.Duration) time.Duration {
	return LanesBusy(spans, []string{lane}, from, to)
}

// Lanes lists the distinct lanes present in spans, sorted.
func Lanes(spans []Span) []string {
	seen := make(map[string]bool)
	for _, s := range spans {
		seen[s.Lane] = true
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Window reports the [min start, max end) extent of spans (0,0 when empty).
func Window(spans []Span) (from, to time.Duration) {
	for i, s := range spans {
		if i == 0 || s.Start < from {
			from = s.Start
		}
		if s.End > to {
			to = s.End
		}
	}
	return from, to
}
