package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"ratel/internal/sim"
)

// WriteCSV exports a simulated timeline as CSV (one row per task) for
// external plotting: id,label,resource,start,end,duration.
func WriteCSV(res sim.Result, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "label", "resource", "start_s", "end_s", "duration_s"}); err != nil {
		return err
	}
	for _, s := range sortedSpans(res) {
		row := []string{
			strconv.Itoa(s.Task.ID),
			s.Task.Label,
			string(s.Task.Resource),
			formatSec(float64(s.Start)),
			formatSec(float64(s.End)),
			formatSec(float64(s.End - s.Start)),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON exports the timeline in the Chrome trace-event format
// (Perfetto / chrome://tracing loadable): complete events with
// microsecond timestamps, one thread per resource.
func WriteJSON(res sim.Result, w io.Writer) error {
	return WriteChrome(ChromeFromSim(res), w)
}

func sortedSpans(res sim.Result) []sim.Span {
	spans := make([]sim.Span, 0, len(res.Spans))
	for _, s := range res.Spans {
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Task.ID < spans[j].Task.ID
	})
	return spans
}

func formatSec(v float64) string { return fmt.Sprintf("%.6f", v) }
