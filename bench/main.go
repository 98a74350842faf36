// Command bench is the repository's end-to-end benchmark: it drives the
// real training engine through four fixed workloads as one closed-loop
// client, reports six end-to-end metrics from an untraced run and a
// per-layer budget from a second, traced run, and checks that the outputs
// are correct. See README.md for the metrics and the workloads.
//
//	go run ./bench                       all four workloads, result JSON to -out
//	go run ./bench -quick                5 steps per workload, no probes
//	go run ./bench -compare a.json b.json
//	go run ./bench -workload io_mixed -seed 3 -seconds 16 -trace 0
//
// Every form measures on one core (-procs 1) unless told otherwise: on a
// shared host a second thread's speed is the host's, not the program's.
//
// The last form is the benchmark driver's: one workload, a timed window of
// at least -seconds, and one JSON object as the last line of standard
// output holding the end-to-end metrics (-trace 0) or the per-layer
// metrics (-trace 1). The report for people goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// tmpRoot holds file-backed devices while a workload runs. It is relative
// to the working directory so the benchmark writes nothing outside it.
const tmpRoot = ".bench_tmp"

// Window sizes. The driver's window is timed (-seconds) but never shorter
// than driverSteps, the fewest samples step_ms_p90 can be read from; the
// traced run is a quarter of the untraced one and at least tracedMinSteps.
const (
	warmupSteps    = 4
	driverSteps    = 100
	tracedMinSteps = 40
	quickSteps     = 5
	setupRepeats   = 3
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: all four, each in a child process)")
		seed         = flag.Int64("seed", 1, "seed of the model's weights and the batch pool")
		seconds      = flag.Float64("seconds", 0, "with -workload: keep the timed window open at least this long")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		quick        = flag.Bool("quick", false, "5 steps per workload and no probes: checks the harness, measures nothing")
		out          = flag.String("out", "bench_result.json", "where the run of all four workloads writes its result")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		child        = flag.Bool("child", false, "internal: measure -workload in full and print its result as JSON")
		procs        = flag.Int("procs", 1, "GOMAXPROCS to measure at; 0 leaves it at the number of CPUs")
	)
	flag.Parse()
	// Before anything touches the engine: the kernels' worker pool sizes
	// itself from GOMAXPROCS on first use.
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	switch {
	case *compare:
		os.Exit(compareMain(flag.Args()))
	case *workloadName == "":
		os.Exit(allMain(*seed, *quick, *out, *procs))
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *workloadName)
		os.Exit(2)
	}
	var p plan
	switch {
	case *child:
		p = fullPlan(w, *seed, *quick)
	case *trace == 0:
		p = plan{seed: *seed, warmup: warmupSteps, untraced: windowSpec{driverSteps, *seconds}, maxSetups: setupRepeats}
	default:
		short := windowSpec{tracedMinSteps, *seconds / 4}
		p = plan{seed: *seed, warmup: warmupSteps, untraced: short, traced: short, maxSetups: 1, probes: true}
	}
	p.tmpRoot = tmpRoot
	fmt.Fprintf(os.Stderr, "bench: GOMAXPROCS %d of %d CPUs\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	res, err := runWorkload(w, p, os.Stderr)
	os.Remove(tmpRoot) // succeeds only once every session has removed its directory
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	var line any = res
	if !*child {
		line = driverLine(res, *trace)
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// fullPlan is the default measurement of one workload: its fixed step
// count untraced, a quarter of it traced, and the probes.
func fullPlan(w workload, seed int64, quick bool) plan {
	if quick {
		return plan{seed: seed, warmup: 1, untraced: windowSpec{steps: quickSteps}, traced: windowSpec{steps: quickSteps}, maxSetups: 1}
	}
	return plan{
		seed:      seed,
		warmup:    warmupSteps,
		untraced:  windowSpec{steps: w.steps},
		traced:    windowSpec{steps: max(w.steps/4, tracedMinSteps)},
		maxSetups: setupRepeats,
		probes:    true,
	}
}

// driverResult is the one line the benchmark driver reads.
type driverResult struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// driverLine picks the metrics BENCHMARK.json lists, which is every one
// but failShare.
func driverLine(res workloadResult, trace int) driverResult {
	line := driverResult{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: res.PerLayer}
	if trace == 0 {
		line.Metrics = metrics{}
		for name, m := range res.EndToEnd {
			if name != failShare {
				line.Metrics[name] = m
			}
		}
	}
	return line
}

// allMain runs every workload in a child process of its own, so that each
// one's peak RSS, heap and worker pool are its own, and writes the result.
func allMain(seed int64, quick bool, out string, procs int) int {
	start := time.Now()
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	r := result{Schema: resultSchema, Machine: thisMachine(), Seed: seed, Quick: quick}
	fmt.Fprintf(os.Stderr, "bench: %d workloads, seed %d, GOMAXPROCS %d of %d CPUs (%s), simd %s, %s, rev %s\n",
		len(workloads), seed, r.Machine.GOMAXPROCS, r.Machine.NProc, r.Machine.CPU, r.Machine.SIMD, r.Machine.GoVersion, r.Machine.GitRev)
	code := 0
	for _, w := range workloads {
		args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-procs", strconv.Itoa(procs)}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, runErr := cmd.Output()
		var res workloadResult
		if err := json.Unmarshal(stdout, &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: no result (%v, %v)\n", w.name, runErr, err)
			return 1
		}
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: checks failed (%v)\n", w.name, runErr)
			code = 1
		}
		r.Workloads = append(r.Workloads, res)
	}
	r.WallS = time.Since(start).Seconds()
	if err := writeResult(out, r); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s after %.1f s\n", out, r.WallS)
	return code
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if bad := compareResults(os.Stdout, a, b); bad > 0 {
		fmt.Printf("%d pair(s) worse than the bound, missing, or trained to different values\n", bad)
		return 1
	}
	fmt.Println("every pair within its bound")
	return 0
}
