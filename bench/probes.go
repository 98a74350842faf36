package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/opt"
	"ratel/internal/tensor"
)

// The probes time single calls into each layer's public functions at the
// sizes the workload uses, with no engine around them: the ceilings the
// traced rows are set against.

// probeMetrics are the per-layer metrics the probes fill.
var probeMetrics = []string{
	"nvme.put_mbps", "nvme.readinto_mbps", "nvme.put_small_us",
	"opt.adamstep_mparams_per_s", "opt.update_group_ms",
	"tensor.matmul_gflops_1t", "tensor.matmul_gflops_nt", "tensor.matmul_scale",
	"tensor.fp16_encode_gbps", "tensor.fp16_decode_gbps",
	"nn.block_fwd_ms", "nn.block_bwd_ms",
}

// Each probe repeats its call for probeBudget, between probeMinRuns and
// probeMaxRuns times, and reports the median.
const (
	probeBudget  = 200 * time.Millisecond
	probeMinRuns = 5
	probeMaxRuns = 512
)

// timeCalls returns the median seconds one call of f takes.
func timeCalls(f func() error) (float64, error) {
	var samples []float64
	start := time.Now()
	for n := 0; n < probeMaxRuns && (n < probeMinRuns || time.Since(start) < probeBudget); n++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(t0).Seconds())
	}
	return median(samples), nil
}

func randFloats(rng *rand.Rand, n int, std float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * std)
	}
	return out
}

func runProbes(pl metrics, w workload, tmpRoot string) error {
	set := func(name string, v float64) { pl.set(perLayer, name, v) }
	rng := rand.New(rand.NewSource(1))
	if err := probeNVMe(set, w, tmpRoot, rng); err != nil {
		return fmt.Errorf("%s: nvme probe: %w", w.name, err)
	}
	if err := probeKernels(set, w, rng); err != nil {
		return fmt.Errorf("%s: kernel probe: %w", w.name, err)
	}
	if err := probeBlock(set, w, rng); err != nil {
		return fmt.Errorf("%s: block probe: %w", w.name, err)
	}
	return nil
}

// probeNVMe times object transfers on a private array shaped like the
// workload's: rewriting and reading back one activation-blob-sized object
// (the path a step takes), and writing 4 KiB objects under fresh keys (the
// path set-up takes, which allocates chunks and grows the device).
func probeNVMe(set func(string, float64), w workload, tmpRoot string, rng *rand.Rand) error {
	dir := ""
	if w.fileBacked {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return err
		}
		var err error
		if dir, err = os.MkdirTemp(tmpRoot, w.name+"-probe-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	a, err := nvme.Open(w.arrayConfig(dir))
	if err != nil {
		return err
	}
	defer a.Close()

	blob := make([]byte, w.blobBytes())
	rng.Read(blob)
	if err := a.Put("probe/blob", blob); err != nil {
		return err
	}
	mib := float64(len(blob)) / (1 << 20)
	t, err := timeCalls(func() error { return a.Put("probe/blob", blob) })
	if err != nil {
		return err
	}
	set("nvme.put_mbps", mib/t)
	dst := make([]byte, len(blob))
	if t, err = timeCalls(func() error { return a.ReadInto("probe/blob", dst) }); err != nil {
		return err
	}
	set("nvme.readinto_mbps", mib/t)

	keys := make([]string, probeMaxRuns)
	for i := range keys {
		keys[i] = fmt.Sprintf("probe/small%d", i)
	}
	i := 0
	if t, err = timeCalls(func() error { i++; return a.Put(keys[i-1], blob[:4096]) }); err != nil {
		return err
	}
	set("nvme.put_small_us", t*1e6)
	return nil
}

// probeKernels times the workload's dominant GEMM (tokens x hidden x
// 4*hidden, the MLP up-projection) on one thread and on one thread per CPU,
// the fp16 codec at the activation-blob size, and Adam on 1M params.
func probeKernels(set func(string, float64), w workload, rng *rand.Rand) error {
	m := w.model
	tokens, hidden := m.Batch*m.Seq, m.Hidden
	a, err := tensor.FromData(randFloats(rng, tokens*hidden, 1), tokens, hidden)
	if err != nil {
		return err
	}
	b, err := tensor.FromData(randFloats(rng, hidden*4*hidden, 0.02), hidden, 4*hidden)
	if err != nil {
		return err
	}
	c := tensor.New(tokens, 4*hidden)
	gflop := 2 * float64(tokens) * float64(hidden) * float64(4*hidden) / 1e9
	matmul := func() error { return tensor.MatMulInto(c, a, b) }

	threads := tensor.Parallelism()
	tensor.SetParallelism(1)
	t1, err := timeCalls(matmul)
	tensor.SetParallelism(threads)
	if err != nil {
		return err
	}
	tn, err := onEveryCPU(matmul)
	if err != nil {
		return err
	}
	set("tensor.matmul_gflops_1t", gflop/t1)
	set("tensor.matmul_gflops_nt", gflop/tn)
	set("tensor.matmul_scale", t1/tn)

	vals := randFloats(rng, w.blobBytes()/2, 1)
	wire := make([]byte, 2*len(vals))
	fp32GB := 4 * float64(len(vals)) / 1e9
	t, err := timeCalls(func() error { return tensor.ToFP16BytesInto(wire, vals) })
	if err != nil {
		return err
	}
	set("tensor.fp16_encode_gbps", fp32GB/t)
	if t, err = timeCalls(func() error { return tensor.FromFP16Bytes(wire, vals) }); err != nil {
		return err
	}
	set("tensor.fp16_decode_gbps", fp32GB/t)

	const adamN = 1 << 20
	p32, grad := randFloats(rng, adamN, 0.02), randFloats(rng, adamN, 0.01)
	mom, vel := make([]float32, adamN), make([]float32, adamN)
	step := 0
	if t, err = timeCalls(func() error { step++; return opt.AdamStep(opt.DefaultAdam(), step, p32, mom, vel, grad) }); err != nil {
		return err
	}
	set("opt.adamstep_mparams_per_s", adamN/t/1e6)
	return nil
}

// onEveryCPU times f with one kernel thread per CPU, whatever GOMAXPROCS the
// workload was measured at, so that matmul_scale keeps saying how the kernel
// scales across cores.
func onEveryCPU(f func() error) (float64, error) {
	threads, procs := tensor.Parallelism(), runtime.GOMAXPROCS(runtime.NumCPU())
	tensor.SetParallelism(runtime.NumCPU())
	defer func() {
		tensor.SetParallelism(threads)
		runtime.GOMAXPROCS(procs)
	}()
	// Untimed first: an idle vCPU can take a while to join in.
	if _, err := timeCalls(f); err != nil {
		return 0, err
	}
	return timeCalls(f)
}

// probeBlock times one transformer block of the workload's geometry,
// forward and backward, and the optimizer's handler on that block's
// parameter group (the workload's largest) over an in-memory store:
// decode, Adam, encode, with no device behind it.
func probeBlock(set func(string, float64), w workload, rng *rand.Rand) error {
	m := w.model
	blk, err := nn.NewBlock("probe", m.Hidden, m.Heads, m.Batch, m.Seq, rng)
	if err != nil {
		return err
	}
	x, err := tensor.FromData(randFloats(rng, m.Batch*m.Seq*m.Hidden, 1), m.Batch*m.Seq, m.Hidden)
	if err != nil {
		return err
	}
	dy, err := tensor.FromData(randFloats(rng, m.Batch*m.Seq*m.Hidden, 0.01), m.Batch*m.Seq, m.Hidden)
	if err != nil {
		return err
	}
	var cache *nn.BlockCache
	t, err := timeCalls(func() (err error) { _, cache, err = blk.Forward(x); return err })
	if err != nil {
		return err
	}
	set("nn.block_fwd_ms", 1e3*t)
	if t, err = timeCalls(func() error { _, err := blk.Backward(cache, dy); return err }); err != nil {
		return err
	}
	set("nn.block_bwd_ms", 1e3*t)

	// The backward passes above left gradients in the block's parameters.
	group := nn.ParamGroup{Name: "probe", Params: blk.Params()}
	adam := opt.NewOutOfCoreAdam(opt.MemStore{}, opt.DefaultAdam(), "probe")
	if err := adam.InitGroup(group); err != nil {
		return err
	}
	if t, err = timeCalls(func() error { adam.BeginStep(); return adam.UpdateGroup(group) }); err != nil {
		return err
	}
	set("opt.update_group_ms", 1e3*t)
	return nil
}
