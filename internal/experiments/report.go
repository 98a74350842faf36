package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/data"
	"ratel/internal/engine"
	"ratel/internal/hw"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/units"
)

func init() {
	register("report", "Holistic data-movement report: per-stage bottleneck verdicts, byte-flow ledger, NVMe reconciliation", reportExperiment)
}

// reportExperiment is the observability stack end to end on a Table
// III-shaped run: a throttled array (Intel P5510 read:write ratio scaled
// 1/200, as in the overlap calibration) makes NVMe the scarce resource, and
// the report must say so — per-stage verdicts from the span timeline, the
// byte-flow ledger split by edge and purpose, ledger-vs-array
// reconciliation, latency quantiles, and measured-vs-configured bandwidth.
func reportExperiment(w io.Writer) (err error) {
	mcfg := nn.Config{Vocab: 64, Seq: 96, Hidden: 16, Heads: 2, Layers: 4, Batch: 2, Seed: 5}
	swap := map[int]engine.Tier{
		0: engine.SwapSSD, 1: engine.SwapSSD, 2: engine.SwapSSD, 3: engine.SwapSSD,
	}
	ssd := &nvme.Config{
		ReadBW:     units.BytesPerSecond(33 << 20),
		WriteBW:    units.BytesPerSecond(19 << 20),
		StripeSize: 1 << 16,
	}
	const steps = 4

	tr := obs.NewTracer(obs.DefaultCapacity)
	reg := obs.NewRegistry()
	e, err := engine.New(engine.Config{
		Model: mcfg, GradMode: agoffload.Optimized, Devices: 3,
		Swap: swap, SSD: ssd, Tracer: tr, Metrics: reg,
	})
	if err != nil {
		return err
	}
	// The last step's optimizer write-back reports at Close.
	defer func() { err = errors.Join(err, e.Close()) }()
	loader, err := data.NewLoader(data.Progression, mcfg.Batch, mcfg.Seq, mcfg.Vocab, 42)
	if err != nil {
		return err
	}

	// Warm-up (pool spin-up, page faults), then the measured window.
	tokens, targets := loader.Next()
	if _, err := e.TrainStep(tokens, targets); err != nil {
		return err
	}
	tr.Reset()
	// Stats is the joined view of the array: it waits out the optimizer's
	// trailing write-back, so the ledger read after it counts the same
	// transfers and the reconciliation below is exact.
	stats0 := e.Stats().SSD
	flows0 := e.Flows()
	for s := 0; s < steps; s++ {
		tokens, targets = loader.Next()
		if _, err := e.TrainStep(tokens, targets); err != nil {
			return err
		}
	}
	stats := e.Stats().SSD
	spans := tr.Spans()
	flow := e.Flows().Sub(flows0)

	// ---- Per-stage bottleneck verdicts ----
	// Each flight record carries the step's window on the tracer timeline;
	// the forward stage is the leading m.Forward of it, backward+optimizer
	// the rest.
	recs := e.FlightRecords()
	if len(recs) > steps {
		recs = recs[len(recs)-steps:]
	}
	fmt.Fprintf(w, "measured window: %d steps, 4 blocks on SSD, throttled array (read %v/s, write %v/s per device x3)\n\n",
		steps, units.Bytes(ssd.ReadBW), units.Bytes(ssd.WriteBW))
	tw := table(w)
	fmt.Fprintln(tw, "step\tstage\tverdict\tbound%\tstall%\tcompute\tnvme-r\tnvme-w\tadam")
	stages := func(r obs.StepRecord) []struct {
		name     string
		from, to time.Duration
	} {
		return []struct {
			name     string
			from, to time.Duration
		}{
			{"forward", r.Start, r.Start + r.Forward},
			{"bwd+opt", r.Start + r.Forward, r.End},
		}
	}
	for _, r := range recs {
		for _, st := range stages(r) {
			a := obs.Attribute(spans, st.from, st.to)
			fmt.Fprintf(tw, "%d\t%s\t%s\t%.0f%%\t%.0f%%\t%v\t%v\t%v\t%v\n",
				r.Step, st.name, a.Bound, 100*a.BoundFraction, 100*a.StallFraction(),
				a.ComputeBusy.Round(time.Microsecond), a.NVMeReadBusy.Round(time.Microsecond),
				a.NVMeWriteBusy.Round(time.Microsecond), a.AdamBusy.Round(time.Microsecond))
		}
	}
	tw.Flush()

	// ---- Byte-flow ledger: edges x purposes over the window ----
	fmt.Fprintf(w, "\nbyte flow over the window (edge x purpose)\n")
	tw = table(w)
	fmt.Fprint(tw, "edge")
	for _, p := range obs.FlowPurposes() {
		fmt.Fprintf(tw, "\t%s", p)
	}
	fmt.Fprintln(tw, "\ttotal")
	for _, edge := range obs.FlowEdges() {
		fmt.Fprintf(tw, "%s", edge)
		var rowTotal int64
		for _, p := range obs.FlowPurposes() {
			v := flow.Get(edge, p)
			rowTotal += v
			fmt.Fprintf(tw, "\t%v", units.Bytes(v))
		}
		fmt.Fprintf(tw, "\t%v\n", units.Bytes(rowTotal))
	}
	tw.Flush()

	// ---- Reconciliation: ledger NVMe rows vs the array's own counters ----
	wroteLedger := flow.Edge(obs.EdgeHostNVMeWrite)
	readLedger := flow.Edge(obs.EdgeHostNVMeRead)
	wroteArray := int64(stats.BytesWritten - stats0.BytesWritten)
	readArray := int64(stats.BytesRead - stats0.BytesRead)
	verdict := "OK"
	if wroteLedger != wroteArray || readLedger != readArray {
		verdict = "MISMATCH"
	}
	fmt.Fprintf(w, "\nreconciliation vs nvme array counters: %s\n", verdict)
	fmt.Fprintf(w, "  writes: ledger %v, array %v (%d ops)\n",
		units.Bytes(wroteLedger), units.Bytes(wroteArray), stats.WriteOps-stats0.WriteOps)
	fmt.Fprintf(w, "  reads:  ledger %v, array %v (%d ops)\n",
		units.Bytes(readLedger), units.Bytes(readArray), stats.ReadOps-stats0.ReadOps)

	// ---- Latency quantiles ----
	fmt.Fprintf(w, "\nlatency histograms (window + warm-up)\n")
	tw = table(w)
	fmt.Fprintln(tw, "metric\tcount\tp50\tp90\tp99\tmax")
	for _, name := range []string{"engine.step_wall_ns", "engine.forward_ns", "engine.backward_ns",
		"engine.optimizer_drain_ns", "nvme.read_ns", "nvme.write_ns", "pool.job_ns"} {
		h := reg.Histogram(name).Snapshot()
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%v\n", name, h.Count,
			time.Duration(h.P50).Round(time.Microsecond), time.Duration(h.P90).Round(time.Microsecond),
			time.Duration(h.P99).Round(time.Microsecond), time.Duration(h.Max).Round(time.Microsecond))
	}
	tw.Flush()

	// ---- Measured vs configured bandwidth ----
	// Busy time is the interval union on each NVMe lane; dividing the
	// ledger's bytes by it gives achieved bandwidth to compare against the
	// throttle ceiling (per-device rate x array width).
	from, to := obs.Window(spans)
	readBusy := obs.LaneBusy(spans, obs.LaneNVMeRead, from, to)
	writeBusy := obs.LaneBusy(spans, obs.LaneNVMeWrite, from, to)
	devs := float64(3)
	fmt.Fprintf(w, "\nachieved NVMe bandwidth vs throttle ceiling\n")
	fmt.Fprintf(w, "  (Table III device: %s, read %.1f / write %.1f GB/s; throttled ~1/200 here)\n",
		hw.IntelP5510.Name, hw.IntelP5510.ReadBW.GBpsf(), hw.IntelP5510.WriteBW.GBpsf())
	if writeBusy > 0 {
		achieved := float64(wroteLedger) / writeBusy.Seconds()
		ceiling := float64(ssd.WriteBW) * devs
		fmt.Fprintf(w, "  write %.1f MB/s of %.1f MB/s ceiling (%.0f%%)\n",
			achieved/1e6, ceiling/1e6, 100*achieved/ceiling)
	}
	if readBusy > 0 {
		achieved := float64(readLedger) / readBusy.Seconds()
		ceiling := float64(ssd.ReadBW) * devs
		fmt.Fprintf(w, "  read  %.1f MB/s of %.1f MB/s ceiling (%.0f%%)\n",
			achieved/1e6, ceiling/1e6, 100*achieved/ceiling)
	}
	return nil
}
