// Command rateltrain fine-tunes a miniature language model with the real
// Ratel engine: model states homed on the (file- or memory-backed) NVMe
// substrate, activations swapped or recomputed per the holistic plan, and
// the out-of-core optimizer hidden behind backward propagation.
//
// Usage:
//
//	rateltrain -steps 50 -layers 4 -hidden 32 -mode optimized -dir /tmp/ratel
//	rateltrain -task chars -steps 300 -dropout 0.05   # char-level LM + sample
//	rateltrain -trace trace.json                      # Chrome/Perfetto timeline
//	rateltrain -debug-addr :6060                      # metrics (expvar + /metrics) + pprof
//
// The engine keeps a flight recorder — a bounded ring of the last steps'
// timing, stalls and byte flows — at all times. On SIGQUIT, a panic, or an
// error from a training step or from Close (where the last step's optimizer
// write-back reports), rateltrain dumps it (with the recent span timeline
// and a metrics snapshot, when those are enabled) to the -flight path as a
// JSON postmortem whose "trace" field is a Chrome trace-event array.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/core"
	"ratel/internal/data"
	"ratel/internal/nn"
	"ratel/internal/obs"
	"ratel/internal/opt"
	"ratel/internal/trace"
)

func main() {
	steps := flag.Int("steps", 50, "training steps")
	layers := flag.Int("layers", 4, "transformer blocks")
	hidden := flag.Int("hidden", 32, "hidden dimension")
	heads := flag.Int("heads", 4, "attention heads")
	seq := flag.Int("seq", 16, "sequence length")
	batch := flag.Int("batch", 4, "batch size")
	vocab := flag.Int("vocab", 64, "vocabulary size (ignored for -task chars)")
	devices := flag.Int("devices", 4, "NVMe devices")
	dir := flag.String("dir", "", "directory for file-backed SSDs (empty = in-memory)")
	mode := flag.String("mode", "optimized", "gradient offloading: serialized, naive or optimized")
	task := flag.String("task", "progression", "training task: progression, copy, uniform or chars")
	dropout := flag.Float64("dropout", 0, "dropout probability")
	lr := flag.Float64("lr", 1e-3, "base learning rate (warmup-cosine schedule)")
	seed := flag.Int64("seed", 1, "random seed")
	checkpoint := flag.String("checkpoint", "", "write the final training state to this file (replaced atomically)")
	resume := flag.String("resume", "", "restore training state from this file before training")
	evalEvery := flag.Int("eval-every", 0, "report a held-out evaluation loss every N steps")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file (open in Perfetto)")
	debugAddr := flag.String("debug-addr", "", "serve live metrics on this address (expvar at /debug/vars, OpenMetrics at /metrics, pprof at /debug/pprof)")
	flightOut := flag.String("flight", "ratel-flight.json", "flight-recorder dump path (written on SIGQUIT, panic, step or close error)")
	reportEvery := flag.Int("report-every", 0, "with -trace, print a bottleneck-attribution line every N steps")
	flag.Parse()

	var gm agoffload.Mode
	switch *mode {
	case "serialized":
		gm = agoffload.Serialized
	case "naive":
		gm = agoffload.Naive
	case "optimized":
		gm = agoffload.Optimized
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}

	// Resolve the data source.
	var (
		corpus    *data.Corpus
		loader    *data.Loader
		err       error
		vocabSize = *vocab
	)
	switch *task {
	case "chars":
		if corpus, err = data.NewCorpus(data.DefaultText); err != nil {
			fail(err)
		}
		vocabSize = corpus.VocabSize()
	case "progression", "copy", "uniform":
		t := map[string]data.Task{"progression": data.Progression, "copy": data.Copy, "uniform": data.Uniform}[*task]
		if loader, err = data.NewLoader(t, *batch, *seq, vocabSize, *seed); err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown task %q", *task))
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.DefaultCapacity)
	}
	var registry *obs.Registry
	if *debugAddr != "" {
		registry = obs.NewRegistry()
		registry.PublishExpvar("ratel")
		http.Handle("/metrics", registry.MetricsHandler())
		go func() {
			// expvar, pprof and /metrics register on the default mux.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "rateltrain: debug server:", err)
			}
		}()
		fmt.Printf("debug server on %s (/debug/vars, /metrics, /debug/pprof)\n", *debugAddr)
	}

	sess, err := core.Init(core.Options{
		Model: nn.Config{
			Vocab: vocabSize, Seq: *seq, Hidden: *hidden, Heads: *heads,
			Layers: *layers, Batch: *batch, Seed: *seed, Dropout: *dropout,
		},
		GradMode:   gm,
		Devices:    *devices,
		Dir:        *dir,
		LRSchedule: opt.WarmupCosine(*lr, *steps/10, *steps, *lr/10),
		Tracer:     tracer,
		Metrics:    registry,
	})
	if err != nil {
		fail(err)
	}

	// The flight recorder is always on inside the engine; this dumps it.
	// Safe to call from the signal goroutine mid-step — the ring, the span
	// buffer and the registry are all concurrency-safe.
	dumpFlight := func(reason string) {
		recs := sess.FlightRecords()
		if len(recs) == 0 {
			return
		}
		var spans []obs.Span
		if tracer != nil {
			spans = tracer.Spans()
		}
		var metrics map[string]float64
		if registry != nil {
			metrics = registry.Snapshot()
		}
		f, err := os.Create(*flightOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rateltrain: flight dump:", err)
			return
		}
		dump := trace.BuildFlightDump(reason, recs, spans, metrics)
		if err := trace.WriteFlightDump(dump, f); err != nil {
			fmt.Fprintln(os.Stderr, "rateltrain: flight dump:", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "rateltrain: flight recorder (%s): %d steps dumped to %s\n",
			reason, len(recs), *flightOut)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGQUIT)
	go func() {
		<-sigc
		dumpFlight("sigquit")
		os.Exit(2)
	}()
	defer func() {
		if r := recover(); r != nil {
			dumpFlight("panic")
			panic(r)
		}
	}()

	pl := sess.Plan()
	fmt.Printf("task %s (vocab %d), plan %v: swapping %v of activations (%d layers)\n",
		*task, vocabSize, pl.Case, pl.AG2M, len(pl.Swapped))

	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			fail(err)
		}
		if err := sess.LoadCheckpoint(f); err != nil {
			f.Close()
			fail(err)
		}
		f.Close()
		fmt.Printf("resumed from %s\n", *resume)
	}

	// A held-out batch for evaluation, drawn from a disjoint seed.
	evalRng := rand.New(rand.NewSource(*seed + 7919))
	var evalTokens, evalTargets [][]int
	if corpus != nil {
		if evalTokens, evalTargets, err = corpus.Batch(evalRng, *batch, *seq); err != nil {
			fail(err)
		}
	} else {
		evalLoader, err := data.NewLoader(data.Progression, *batch, *seq, vocabSize, *seed+7919)
		if err != nil {
			fail(err)
		}
		evalTokens, evalTargets = evalLoader.Next()
	}

	rng := rand.New(rand.NewSource(*seed))
	for step := 1; step <= *steps; step++ {
		var tokens, targets [][]int
		if corpus != nil {
			if tokens, targets, err = corpus.Batch(rng, *batch, *seq); err != nil {
				fail(err)
			}
		} else {
			tokens, targets = loader.Next()
		}
		loss, err := sess.TrainStep(tokens, targets)
		if err != nil {
			dumpFlight("step-error")
			fail(err)
		}
		if step == 1 || step%25 == 0 || step == *steps {
			fmt.Printf("step %4d  loss %.4f\n", step, loss)
		}
		// Bottleneck attribution needs the span timeline, so the periodic
		// verdict rides on -trace; the default stdout stays byte-identical.
		if tracer != nil && *reportEvery > 0 && step%*reportEvery == 0 {
			if recs := sess.FlightRecords(); len(recs) > 0 {
				r := recs[len(recs)-1]
				a := obs.Attribute(tracer.Spans(), r.Start, r.End)
				fmt.Printf("step %4d  bound %s (%.0f%% of step, stalls %.0f%%), moved %d bytes (%d stalls, %v waiting)\n",
					step, a.Bound, 100*a.BoundFraction, 100*a.StallFraction(),
					r.Flow.Total(), r.OffloadStalls, r.OffloadStallWait.Round(time.Microsecond))
			}
		}
		if *evalEvery > 0 && step%*evalEvery == 0 {
			eval, err := sess.Model().EvalLoss(evalTokens, evalTargets)
			if err != nil {
				fail(err)
			}
			fmt.Printf("step %4d  eval loss %.4f\n", step, eval)
		}
	}
	if *checkpoint != "" {
		if err := writeCheckpoint(*checkpoint, sess.SaveCheckpoint); err != nil {
			fail(err)
		}
		fmt.Printf("checkpoint written to %s\n", *checkpoint)
	}
	st := sess.Stats()
	fmt.Printf("done: %d steps, offloaded %v of activations, fetched %v, recomputed %d blocks\n",
		st.Steps, st.ActBytesOffload, st.ActBytesFetched, st.RecomputedBlocks)
	fmt.Printf("ssd traffic: wrote %v, read %v across %d objects\n",
		st.SSD.BytesWritten, st.SSD.BytesRead, st.SSD.Objects)
	// Wall-clock profile only under the telemetry flags: the default
	// stdout stays byte-identical across runs and thread counts.
	if m := sess.LastStepMetrics(); m.Step > 0 && (tracer != nil || registry != nil) {
		fmt.Printf("last step: %v wall (fwd %v, bwd %v, optimizer drain %v), %.0f tokens/s, adam %.2e params/s\n",
			m.Wall.Round(10e3), m.Forward.Round(10e3), m.Backward.Round(10e3), m.OptimizerDrain.Round(10e3),
			m.TokensPerSec, m.AdamParamsPerSec())
	}

	if tracer != nil {
		spans := tracer.Spans()
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := trace.WriteEngineJSON(spans, f); err != nil {
			f.Close()
			fail(err)
		}
		f.Close()
		total, dropped := tracer.Recorded()
		fmt.Printf("trace: %d spans written to %s (%d recorded, %d dropped by the ring)\n",
			len(spans), *traceOut, total, dropped)
	}

	if corpus != nil {
		prompt, err := corpus.Encode("the key idea ")
		if err != nil {
			fail(err)
		}
		if len(prompt) > *seq-4 {
			prompt = prompt[:*seq-4]
		}
		out, err := sess.Generate(prompt, *seq-len(prompt))
		if err != nil {
			fail(err)
		}
		fmt.Printf("sample: %q\n", corpus.Decode(out))
	}

	// The optimizer's write-back trails each step, so the last step's fails —
	// if it fails — here (or at the checkpoint above) rather than in TrainStep.
	if err := sess.Close(); err != nil {
		dumpFlight("close-error")
		fail(err)
	}
}

// writeCheckpoint replaces the checkpoint at path atomically: save writes
// <path>.tmp in the same directory, which is synced, closed and only then
// renamed over path. On any error the temporary file is removed and the
// previous checkpoint, if there is one, is left as it was.
func writeCheckpoint(path string, save func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rateltrain:", err)
	os.Exit(1)
}
