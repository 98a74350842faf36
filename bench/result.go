package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"ratel/internal/tensor/simd"
)

// metricSpec names one metric. Bound and Floor apply to end-to-end
// metrics only: the median may worsen by max(Bound x parent, Floor) before
// a change counts as a regression.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Floor  float64
}

// endToEnd are the metrics a user of the engine sees, the same six on
// every workload, measured with tracing off.
var endToEnd = []metricSpec{
	{"tokens_per_s", "tokens/s", "higher", 0.15, 0},
	{"step_ms_p50", "ms", "lower", 0.15, 0},
	{"step_ms_p90", "ms", "lower", 0.25, 0},
	{"setup_s", "s", "lower", 0.25, 0.15},
	{"allocs_per_step", "allocs", "lower", 0.02, 5},
	{failShare, "ratio", "lower", 0, 0},
}

// failShare is the one end-to-end metric BENCHMARK.json leaves out: the
// driver takes no metric whose good value is 0, and reads failures from the
// attempted and failed counts of the result line instead.
const failShare = "step_fail_share"

// perLayer are the single-layer metrics of the traced run and the probes,
// in report order. README.md says which end-to-end metric each should move.
var perLayer = []metricSpec{
	{Name: "engine.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.opt_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.offload_stalls", Unit: "count", Better: "lower"},
	{Name: "engine.offload_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.fetch_stalls", Unit: "count", Better: "lower"},
	{Name: "engine.fetch_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.effective_depth", Unit: "count", Better: "higher"},
	{Name: "engine.act_offload_bytes", Unit: "B", Better: "lower"},
	{Name: "engine.act_fetch_bytes", Unit: "B", Better: "lower"},
	{Name: "engine.recomputed_blocks", Unit: "count", Better: "lower"},
	{Name: "engine.new_s", Unit: "s", Better: "lower"},
	{Name: "engine.warmup_s", Unit: "s", Better: "lower"},
	{Name: "engine.ckpt_save_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.ckpt_bytes", Unit: "B", Better: "lower"},
	{Name: "engine.compute_pct", Unit: "%", Better: "higher"},
	{Name: "engine.exposed_stall_pct", Unit: "%", Better: "lower"},
	{Name: "engine.exposed_adam_pct", Unit: "%", Better: "lower"},
	{Name: "engine.exposed_nvme_pct", Unit: "%", Better: "lower"},
	{Name: "engine.idle_pct", Unit: "%", Better: "lower"},

	{Name: "obs.compute_busy_pct", Unit: "%", Better: "higher"},
	{Name: "obs.nvme_read_busy_pct", Unit: "%", Better: "lower"},
	{Name: "obs.nvme_write_busy_pct", Unit: "%", Better: "lower"},
	{Name: "obs.cpu_adam_busy_pct", Unit: "%", Better: "lower"},
	{Name: "obs.stall_pct", Unit: "%", Better: "lower"},
	{Name: "obs.spans_per_step", Unit: "count", Better: "lower"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},

	{Name: "nvme.read_bytes", Unit: "B", Better: "lower"},
	{Name: "nvme.write_bytes", Unit: "B", Better: "lower"},
	{Name: "nvme.read_ops", Unit: "count", Better: "lower"},
	{Name: "nvme.write_ops", Unit: "count", Better: "lower"},
	{Name: "nvme.peak_reads_inflight", Unit: "count", Better: "higher"},
	{Name: "nvme.peak_writes_inflight", Unit: "count", Better: "higher"},
	{Name: "nvme.read_util_pct", Unit: "%", Better: "higher"},
	{Name: "nvme.write_util_pct", Unit: "%", Better: "higher"},
	{Name: "nvme.ledger_mismatch_bytes", Unit: "B", Better: "lower"},
	{Name: "nvme.put_mbps", Unit: "MiB/s", Better: "higher"},
	{Name: "nvme.readinto_mbps", Unit: "MiB/s", Better: "higher"},
	{Name: "nvme.put_small_us", Unit: "us", Better: "lower"},

	{Name: "opt.adam_params", Unit: "count", Better: "lower"},
	{Name: "opt.adam_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.adam_mparams_per_s", Unit: "Mparams/s", Better: "higher"},
	{Name: "opt.state_bytes", Unit: "B", Better: "lower"},
	{Name: "opt.adamstep_mparams_per_s", Unit: "Mparams/s", Better: "higher"},
	{Name: "opt.update_group_ms", Unit: "ms", Better: "lower"},

	{Name: "tensor.matmul_gflops_1t", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_gflops_nt", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_scale", Unit: "ratio", Better: "higher"},
	{Name: "tensor.fp16_encode_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.fp16_decode_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "nn.block_fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.block_bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "pool.jobs", Unit: "count", Better: "lower"},
	{Name: "pool.inline_pct", Unit: "%", Better: "higher"},
	{Name: "pool.stolen_chunks", Unit: "count", Better: "lower"},

	{Name: "rt.alloc_kib", Unit: "KiB", Better: "lower"},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.peak_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "rt.machine_speed", Unit: "ratio", Better: "higher"},
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric name to value. set takes the unit from the spec
// table so a name can only ever be reported with one unit.
type metrics map[string]metric

func (m metrics) set(specs []metricSpec, name string, v float64) {
	s, ok := findSpec(specs, name)
	if !ok {
		panic("bench: metric " + name + " is not in the spec table")
	}
	m[name] = metric{Value: v, Unit: s.Unit}
}

func findSpec(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}

// check is one correctness assertion on a workload's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// workloadResult is everything one workload's process measured.
type workloadResult struct {
	Name        string `json:"name"`
	Steps       int    `json:"steps"`
	TracedSteps int    `json:"traced_steps"`
	// Attempted and Failed count the timed untraced steps; a step fails
	// when it returns an error or a non-finite loss.
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	LossFirst float64 `json:"loss_first"`
	LossLast  float64 `json:"loss_last"`
	// LossTraceHash is FNV-1a over the float64 bits of the loss of every
	// timed step up to the window's fixed step count, so two commits can be
	// compared step for step.
	LossTraceHash string  `json:"loss_trace_hash"`
	EndToEnd      metrics `json:"end_to_end,omitempty"`
	PerLayer      metrics `json:"per_layer,omitempty"`
	Checks        []check `json:"checks"`
}

func (r *workloadResult) addCheck(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r workloadResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// machine records where a result was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	SIMD       string `json:"simd"`
	SIMDActive bool   `json:"simd_active"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_revision"`
}

func thisMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		SIMD:       simd.Level(),
		SIMDActive: simd.Active(),
		GoVersion:  runtime.Version(),
		GitRev:     gitRevision(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision asks git for the checkout's revision ("-dirty" with
// uncommitted changes, "unknown" outside a git checkout). The toolchain's
// own stamp is no use here: go run leaves it out.
func gitRevision() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// result is the JSON document one invocation writes.
type result struct {
	Schema    int              `json:"schema"`
	Machine   machine          `json:"machine"`
	Seed      int64            `json:"seed"`
	Quick     bool             `json:"quick,omitempty"`
	WallS     float64          `json:"wall_s"`
	Workloads []workloadResult `json:"workloads"`
}

const resultSchema = 1

func readResult(path string) (result, error) {
	var r result
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return r, fmt.Errorf("%s: result schema %d, want %d", path, r.Schema, resultSchema)
	}
	return r, nil
}

func writeResult(path string, r result) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printMetrics lists every metric in specs that m holds, by name and unit.
func printMetrics(w io.Writer, specs []metricSpec, m metrics) {
	for _, s := range specs {
		if v, ok := m[s.Name]; ok {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", s.Name, v.Value, v.Unit)
		}
	}
}

// median of samples; NaN when empty. samples is not modified.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the nearest-rank p-th percentile (0 < p < 1) of
// samples. It is refused unless at least ten samples lie beyond it: a tail
// read off fewer is one outlier's position, not a percentile.
func tailPercentile(samples []float64, p float64) (float64, error) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if beyond := len(s) - rank; beyond < 10 {
		return 0, fmt.Errorf("p%.0f of %d samples leaves %d beyond it, need 10", 100*p, len(s), beyond)
	}
	return s[rank-1], nil
}
