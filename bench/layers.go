package main

import (
	"bufio"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"ratel/internal/obs"
	"ratel/internal/tensor/pool"
)

// traceCapacity holds every span of the longest traced window with room
// to spare (the busiest workload records a few hundred spans per step);
// obs.spans_dropped checks that it did.
const traceCapacity = 1 << 18

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedRun repeats the workload under a tracer on a fresh engine and
// fills res.PerLayer: the engine's own telemetry summed per step, the span
// budget, the array and ledger counters, the probes, and the runtime's view
// of the untraced window. untraced is the end-to-end window it is compared
// against.
func tracedRun(res *workloadResult, w workload, p plan, untraced window) error {
	tracer := obs.NewTracer(traceCapacity)
	s, err := openSession(w, p, tracer)
	if err != nil {
		return err
	}
	defer s.close()

	stats0, flows0, pool0 := s.e.Stats(), s.e.Flows(), pool.DefaultStats()
	win := s.measure(p.traced, true)
	stats1, flows1, pool1 := s.e.Stats(), s.e.Flows(), pool.DefaultStats()
	spans := tracer.Spans()
	recorded, dropped := tracer.Recorded()

	n := win.steps()
	steps := float64(n)
	res.TracedSteps = n
	pl := res.PerLayer
	set := func(name string, v float64) { pl.set(perLayer, name, v) }

	// engine: its own StepMetrics, per step.
	prof := win.profile
	set("engine.forward_ms", ms(prof.forward)/steps)
	set("engine.backward_ms", ms(prof.backward)/steps)
	set("engine.opt_drain_ms", ms(prof.drain)/steps)
	set("engine.offload_stalls", float64(prof.offloadStalls)/steps)
	set("engine.offload_stall_ms", ms(prof.offloadStallWait)/steps)
	set("engine.fetch_stalls", float64(prof.fetchStalls)/steps)
	set("engine.fetch_stall_ms", ms(prof.fetchStallWait)/steps)
	set("engine.effective_depth", float64(prof.depth)/steps)
	set("engine.act_offload_bytes", float64(stats1.ActBytesOffload-stats0.ActBytesOffload)/steps)
	set("engine.act_fetch_bytes", float64(stats1.ActBytesFetched-stats0.ActBytesFetched)/steps)
	set("engine.recomputed_blocks", float64(stats1.RecomputedBlocks-stats0.RecomputedBlocks)/steps)
	set("engine.new_s", s.newS)
	set("engine.warmup_s", s.warmS)
	set("engine.ckpt_save_ms", 0)
	set("engine.ckpt_bytes", 0)
	if len(win.ckptMS) > 0 {
		set("engine.ckpt_save_ms", median(win.ckptMS))
		set("engine.ckpt_bytes", float64(win.ckptBytes))
	}

	// engine budget and obs lane unions, from the spans.
	from, to, stepSpans := stepWindow(spans)
	b := foldSpans(spans, from, to)
	set("engine.compute_pct", b.pct(b.compute))
	set("engine.exposed_stall_pct", b.pct(b.stall))
	set("engine.exposed_adam_pct", b.pct(b.adam))
	set("engine.exposed_nvme_pct", b.pct(b.nvme))
	set("engine.idle_pct", b.pct(b.idle))
	set("obs.compute_busy_pct", b.pct(b.busy[classCompute]))
	set("obs.nvme_read_busy_pct", b.pct(b.busy[classNVMeRead]))
	set("obs.nvme_write_busy_pct", b.pct(b.busy[classNVMeWrite]))
	set("obs.cpu_adam_busy_pct", b.pct(b.busy[classAdam]))
	set("obs.stall_pct", b.pct(b.busy[classStall]))
	set("obs.spans_per_step", float64(recorded)/steps)
	set("obs.spans_dropped", float64(dropped))
	tracedP50, untracedP50 := median(win.stepMS), median(untraced.stepMS)
	set("obs.trace_overhead_pct", 100*(tracedP50/untracedP50-1))

	// nvme: array counters over the window, per step.
	ssd0, ssd1 := stats0.SSD, stats1.SSD
	readBytes, writeBytes := float64(ssd1.BytesRead-ssd0.BytesRead), float64(ssd1.BytesWritten-ssd0.BytesWritten)
	set("nvme.read_bytes", readBytes/steps)
	set("nvme.write_bytes", writeBytes/steps)
	set("nvme.read_ops", float64(ssd1.ReadOps-ssd0.ReadOps)/steps)
	set("nvme.write_ops", float64(ssd1.WriteOps-ssd0.WriteOps)/steps)
	set("nvme.peak_reads_inflight", float64(ssd1.PeakReadsInFlight))
	set("nvme.peak_writes_inflight", float64(ssd1.PeakWritesInFlight))
	// Utilisation: bytes moved while the lane was busy, against what the
	// whole array could move in that time under its throttle.
	var readBW, writeBW float64 // 0 on an unthrottled array, which reports 0
	if w.ssd != nil {
		readBW, writeBW = float64(w.ssd.ReadBW), float64(w.ssd.WriteBW)
	}
	set("nvme.read_util_pct", 100*ratio(readBytes, b.busy[classNVMeRead].Seconds()*float64(w.devices)*readBW))
	set("nvme.write_util_pct", 100*ratio(writeBytes, b.busy[classNVMeWrite].Seconds()*float64(w.devices)*writeBW))
	// The flow ledger and the array count the same bytes independently,
	// both since engine.New.
	mismatch := abs64(flows1.Edge(obs.EdgeHostNVMeRead)-int64(ssd1.BytesRead)) +
		abs64(flows1.Edge(obs.EdgeHostNVMeWrite)-int64(ssd1.BytesWritten))
	set("nvme.ledger_mismatch_bytes", float64(mismatch))

	// opt: the CPU optimizer's kernel work and state traffic, per step.
	set("opt.adam_params", float64(prof.adamParams)/steps)
	set("opt.adam_busy_ms", ms(prof.adamBusy)/steps)
	set("opt.adam_mparams_per_s", ratio(float64(prof.adamParams), prof.adamBusy.Seconds())/1e6)
	set("opt.state_bytes", float64(flows1.Purpose(obs.FlowOptState)-flows0.Purpose(obs.FlowOptState))/steps)

	// pool: dispatch counters over the window, per step.
	jobs, inline := float64(pool1.Jobs-pool0.Jobs), float64(pool1.InlineRuns-pool0.InlineRuns)
	set("pool.jobs", jobs/steps)
	set("pool.inline_pct", 100*ratio(inline, jobs+inline))
	set("pool.stolen_chunks", float64(pool1.StolenChunks-pool0.StolenChunks)/steps)

	// rt: the Go runtime over the untraced window.
	m0, m1 := untraced.mem0, untraced.mem1
	set("rt.alloc_kib", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(untraced.steps()))
	set("rt.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	set("rt.gc_cycles", float64(m1.NumGC-m0.NumGC))
	// What the untraced window's times were scaled by, where the step is all
	// CPU: below 1 the machine ran slower than the reference.
	set("rt.machine_speed", ms(refNominal)/median(untraced.refMS))

	// Read before the probes run: their buffers are not the workload's.
	set("rt.peak_rss_mib", peakRSSMiB())

	if p.probes {
		if err := runProbes(pl, w, p.tmpRoot); err != nil {
			return err
		}
	} else {
		for _, name := range probeMetrics {
			set(name, 0)
		}
	}

	// Checks on the traced run.
	k := min(p.traced.steps, p.untraced.steps)
	tracedHash, untracedHash := lossHash(win.losses[:k]), lossHash(untraced.losses[:k])
	res.addCheck("trace_changes_nothing", tracedHash == untracedHash && win.failed == 0,
		"first %d losses: traced hash %s, untraced %s; %d traced steps failed", k, tracedHash, untracedHash, win.failed)
	res.addCheck("ledger_matches_array", mismatch == 0, "nvme.ledger_mismatch_bytes = %d", mismatch)
	res.addCheck("no_spans_dropped", dropped == 0, "%d of %d spans dropped", dropped, recorded)
	res.addCheck("one_span_per_step", stepSpans == n, "%d step spans for %d steps", stepSpans, n)
	// The two ways the step's time is accounted for must each close: the
	// span budget over the window, the engine's three phases over the step.
	budgetSum := b.pct(b.compute) + b.pct(b.stall) + b.pct(b.adam) + b.pct(b.nvme) + b.pct(b.idle)
	res.addCheck("budget_closes", math.Abs(budgetSum-100) < 1e-6,
		"compute+stall+adam+nvme+idle = %.6f %% of the %.2f s traced window", budgetSum, (to - from).Seconds())
	phases := 100 * (prof.forward + prof.backward + prof.drain).Seconds() / prof.wall.Seconds()
	res.addCheck("phases_cover_step", math.Abs(phases-100) <= 5,
		"forward+backward+drain = %.2f %% of the traced steps' wall time", phases)
	return nil
}

// ratio is a/b, and 0 where there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// peakRSSMiB is this process's resident-set high-water mark (VmHWM), 0
// where /proc does not say.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	return parseVmHWM(f)
}

func parseVmHWM(r io.Reader) float64 {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest) // "123456 kB"
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
