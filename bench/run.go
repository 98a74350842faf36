package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"ratel/internal/engine"
	"ratel/internal/obs"
)

// session is one engine past warm-up, with the inputs it is fed. A single
// closed-loop client drives it: the next step is issued when the previous
// one returns.
type session struct {
	w       workload
	e       *engine.Engine
	batches []engine.Batch
	// next is the index of the next optimizer step, warm-up included; it
	// picks the batches, so every session of a seed sees the same sequence.
	next int
	// micro is step's scratch for an accumulation step's micro-batches.
	micro []engine.Batch
	dir   string
	// newS and warmS split set-up time: engine.New as measured (it allocates
	// and copies, which the reference kernel of speed.go does not stand for),
	// then the warm-up steps at the reference speed, as timed steps are.
	newS, warmS float64
}

// openSession builds the workload's engine and warms it up. tracer is nil
// for the untraced run.
func openSession(w workload, p plan, tracer *obs.Tracer) (*session, error) {
	s := &session{w: w, batches: genBatches(w.model, p.seed), micro: make([]engine.Batch, w.micro)}
	if w.fileBacked {
		if err := os.MkdirAll(p.tmpRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(p.tmpRoot, w.name+"-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
	}
	cfg := w.config(p.seed, s.dir)
	cfg.Tracer = tracer

	t0 := time.Now()
	e, err := engine.New(cfg)
	if err != nil {
		s.removeDir()
		return nil, fmt.Errorf("%s: engine.New: %w", w.name, err)
	}
	s.e = e
	s.newS = time.Since(t0).Seconds()
	m := takeMark()
	t1 := time.Now()
	for i := 0; i < p.warmup; i++ {
		if _, err := s.step(); err != nil {
			s.close()
			return nil, fmt.Errorf("%s: warm-up step %d: %w", w.name, i, err)
		}
	}
	warm := time.Since(t1).Seconds()
	s.warmS = warm * speedScale(m, takeMark())
	tracer.Reset()
	return s, nil
}

// step runs one optimizer step on the next batches of the pool.
func (s *session) step() (float64, error) {
	i := s.next
	s.next++
	if s.w.micro == 1 {
		b := s.batches[i%batchPool]
		return s.e.TrainStep(b.Tokens, b.Targets)
	}
	for j := range s.micro {
		s.micro[j] = s.batches[(i*s.w.micro+j)%batchPool]
	}
	return s.e.TrainStepAccum(s.micro)
}

func (s *session) removeDir() {
	if s.dir != "" {
		os.RemoveAll(s.dir) // best effort: a leftover temp dir is not a result
	}
}

func (s *session) close() {
	s.e.Close() // the array holds nothing this process reads again
	s.removeDir()
}

// windowSpec sizes a timed window: at least steps steps, and further steps
// until seconds have passed. seconds 0 makes the window exactly steps long.
type windowSpec struct {
	steps   int
	seconds float64
}

// stepProfile sums the engine's own per-step telemetry over a window.
type stepProfile struct {
	forward, backward, drain, wall time.Duration
	offloadStalls, fetchStalls     int
	offloadStallWait               time.Duration
	fetchStallWait                 time.Duration
	depth                          int
	adamParams                     int64
	adamBusy                       time.Duration
}

func (p *stepProfile) add(m engine.StepMetrics) {
	p.forward += m.Forward
	p.backward += m.Backward
	p.drain += m.OptimizerDrain
	p.wall += m.Wall
	p.offloadStalls += m.OffloadStalls
	p.offloadStallWait += m.OffloadStallWait
	p.fetchStalls += m.FetchStalls
	p.fetchStallWait += m.FetchStallWait
	p.depth += m.EffectiveDepth
	p.adamParams += m.AdamParams
	p.adamBusy += m.AdamBusy
}

// segment is the shortest stretch of a window that gets a speed reading of
// its own: steps run until it has passed, then the reference kernel.
const segment = 750 * time.Millisecond

// window is what one timed window measured. Every time in it is at the
// reference speed: each segment's steps are scaled by that segment's
// speedScale.
type window struct {
	stepMS []float64 // wall time of each step call
	losses []float64 // loss of each step, NaN for a failed one
	failed int
	wall   float64 // seconds, the reference kernel's own time left out
	// rawWall is wall before scaling, and refMS the speed readings.
	rawWall float64
	refMS   []float64
	// mem0 and mem1 bracket the window.
	mem0, mem1 runtime.MemStats
	ckptMS     []float64
	ckptBytes  int64 // size of the last checkpoint saved
	profile    stepProfile
}

func (w window) steps() int { return len(w.stepMS) }

// measure runs one timed window. With profile set it also reads the
// engine's StepMetrics after every step (the traced run); the untraced run
// touches nothing of the engine but the step call. Between segments it
// reads the machine's speed, outside every timed interval.
func (s *session) measure(spec windowSpec, profile bool) window {
	win := window{
		stepMS: make([]float64, 0, 4*spec.steps+1024),
		losses: make([]float64, 0, 4*spec.steps+1024),
		refMS:  make([]float64, 0, 1024),
	}
	var ckpt bytes.Buffer
	runtime.GC()
	runtime.ReadMemStats(&win.mem0)
	start := time.Now()
	prev := takeMark()
	win.refMS = append(win.refMS, ms(prev.ref))
	segSteps, segCkpts := 0, 0 // where the open segment starts in stepMS and ckptMS
	for n := 0; ; n++ {
		t0 := time.Now()
		loss, err := s.step()
		win.stepMS = append(win.stepMS, ms(time.Since(t0)))
		if err != nil || math.IsNaN(loss) || math.IsInf(loss, 0) {
			fmt.Fprintf(os.Stderr, "%s: step %d failed: loss %v, err %v\n", s.w.name, n, loss, err)
			win.failed++
			loss = math.NaN()
		}
		win.losses = append(win.losses, loss)
		if profile {
			win.profile.add(s.e.LastStepMetrics())
		}
		if s.w.ckptEvery > 0 && (n+1)%s.w.ckptEvery == 0 {
			ckpt.Reset()
			t0 := time.Now()
			if err := s.e.SaveCheckpoint(&ckpt); err != nil {
				fmt.Fprintf(os.Stderr, "%s: checkpoint after step %d failed: %v\n", s.w.name, n, err)
				win.failed++
			}
			win.ckptMS = append(win.ckptMS, ms(time.Since(t0)))
			win.ckptBytes = int64(ckpt.Len())
		}
		last := n+1 >= spec.steps && time.Since(start).Seconds() >= spec.seconds
		if !last && time.Since(prev.end) < segment {
			continue
		}
		cur := takeMark()
		scale, raw := speedScale(prev, cur), cur.start.Sub(prev.end).Seconds()
		for i := segSteps; i < len(win.stepMS); i++ {
			win.stepMS[i] *= scale
		}
		for i := segCkpts; i < len(win.ckptMS); i++ {
			win.ckptMS[i] *= scale
		}
		win.wall += scale * raw
		win.rawWall += raw
		win.refMS = append(win.refMS, ms(cur.ref))
		prev, segSteps, segCkpts = cur, len(win.stepMS), len(win.ckptMS)
		if last {
			break
		}
	}
	runtime.ReadMemStats(&win.mem1)
	return win
}

// lossHash is FNV-1a over the float64 bits of losses.
func lossHash(losses []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range losses {
		bits := math.Float64bits(l)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// plan says what one workload process measures.
type plan struct {
	seed int64
	// warmup is the untimed steps after engine.New: they fill the buffer
	// pools, size the optimizer scratch and fault in the heap.
	warmup int
	// untraced is the end-to-end window. traced, when its step count is
	// non-zero, is the second run of the same workload under a tracer.
	untraced, traced windowSpec
	// maxSetups bounds how many times the workload is set up for setup_s
	// (the median is reported); set-ups also stop once setupBudget is spent.
	maxSetups int
	probes    bool
	tmpRoot   string
}

// setupBudget caps the time spent repeating set-up: a workload whose
// set-up takes seconds is steady after two, and its run must still fit
// the driver's limit.
const setupBudget = 6 * time.Second

// resumeSteps is how far the restored engine must track the original.
const resumeSteps = 3

// runWorkload measures one workload per the plan and checks its outputs.
func runWorkload(w workload, p plan, report io.Writer) (workloadResult, error) {
	res := workloadResult{Name: w.name, EndToEnd: metrics{}}

	// Untraced run: set up (several times), then the end-to-end window.
	var (
		s      *session
		setups []float64
		spent  float64
	)
	for i := 0; i < p.maxSetups && (i == 0 || spent < setupBudget.Seconds()); i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = openSession(w, p, nil); err != nil {
			return res, err
		}
		setups = append(setups, s.newS+s.warmS)
		spent += s.newS + s.warmS
	}
	defer func() { s.close() }()
	win := s.measure(p.untraced, false)

	n := win.steps()
	res.Steps, res.Attempted, res.Failed = n, n, win.failed
	res.LossFirst, res.LossLast = win.losses[0], win.losses[n-1]
	res.LossTraceHash = lossHash(win.losses[:p.untraced.steps])
	e2e := res.EndToEnd
	e2e.set(endToEnd, "tokens_per_s", float64(n*w.tokensPerStep())/win.wall)
	e2e.set(endToEnd, "step_ms_p50", median(win.stepMS))
	if p90, err := tailPercentile(win.stepMS, 0.90); err == nil {
		e2e.set(endToEnd, "step_ms_p90", p90)
	} else {
		fmt.Fprintf(report, "  step_ms_p90 not reported: %v\n", err)
	}
	e2e.set(endToEnd, "setup_s", median(setups))
	e2e.set(endToEnd, "allocs_per_step", float64(win.mem1.Mallocs-win.mem0.Mallocs)/float64(n))
	e2e.set(endToEnd, failShare, float64(win.failed)/float64(n))

	res.addCheck("no_failed_steps", win.failed == 0, "%d of %d steps failed", win.failed, n)
	res.addCheck("loss_fell", res.LossLast < res.LossFirst, "loss %.6f -> %.6f over %d steps", res.LossFirst, res.LossLast, n)
	if w.ckptEvery > 0 {
		if err := checkResume(&res, s, p); err != nil {
			return res, err
		}
	}

	fmt.Fprintf(report, "%s: %d steps in %.2f s (%.2f s at the reference speed: kernel median %.2f ms, nominal %.0f), %d set-up(s); loss %.6f -> %.6f, loss_trace_hash %s (first %d steps)\n",
		w.name, n, win.rawWall, win.wall, median(win.refMS), ms(refNominal), len(setups), res.LossFirst, res.LossLast, res.LossTraceHash, p.untraced.steps)
	fmt.Fprintf(report, " end-to-end (untraced, %d step samples, %d attempted, %d failed):\n", n, res.Attempted, res.Failed)
	printMetrics(report, endToEnd, e2e)

	if p.traced.steps > 0 {
		res.PerLayer = metrics{}
		if err := tracedRun(&res, w, p, win); err != nil {
			return res, err
		}
		fmt.Fprintf(report, " per-layer (traced, %d steps):\n", res.TracedSteps)
		printMetrics(report, perLayer, res.PerLayer)
	}
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(report, " check %s %-24s %s\n", mark, c.Name, c.Detail)
	}
	return res, nil
}

// checkResume saves a checkpoint, steps the original engine on, and checks
// that a fresh engine loaded from the checkpoint produces the same losses
// bit for bit. It runs after the timed window.
func checkResume(res *workloadResult, s *session, p plan) error {
	var ckpt bytes.Buffer
	if err := s.e.SaveCheckpoint(&ckpt); err != nil {
		return fmt.Errorf("%s: final checkpoint: %w", s.w.name, err)
	}
	at := s.next
	var want, got [resumeSteps]float64
	for i := range want {
		var err error
		if want[i], err = s.step(); err != nil {
			return fmt.Errorf("%s: step after checkpoint: %w", s.w.name, err)
		}
	}
	fresh, err := openSession(s.w, p, nil)
	if err != nil {
		return err
	}
	defer fresh.close()
	if err := fresh.e.LoadCheckpoint(&ckpt); err != nil {
		return fmt.Errorf("%s: load checkpoint: %w", s.w.name, err)
	}
	fresh.next = at
	for i := range got {
		if got[i], err = fresh.step(); err != nil {
			return fmt.Errorf("%s: step after restore: %w", s.w.name, err)
		}
	}
	res.addCheck("ckpt_resume_identical", lossHash(want[:]) == lossHash(got[:]),
		"%d steps after restore: original %v, restored %v", resumeSteps, want, got)
	return nil
}
