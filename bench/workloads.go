package main

import (
	"math/rand"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/engine"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/units"
)

// Table III's per-device P5510 shape (6.5 GB/s read, 3.8 GB/s write)
// scaled down 200x so the laptop-scale model is I/O-bound the way the
// paper's 100B model is.
const (
	throttleReadBW  = units.BytesPerSecond(33 << 20)
	throttleWriteBW = units.BytesPerSecond(19 << 20)
)

// batchPool is the number of distinct batches a workload cycles through.
const batchPool = 8

// workload is one fixed training configuration. Everything the engine is
// told about it is in config(); nothing else is set, so the numbers are
// what a caller who only sizes the model and the array gets.
type workload struct {
	name  string
	why   string
	model nn.Config
	swap  map[int]engine.Tier
	// devices is the array width; fileBacked puts each device in a file
	// under a fresh directory instead of in memory.
	devices    int
	fileBacked bool
	// ssd is passed as Config.SSD (nil = the engine's defaults).
	ssd *nvme.Config
	// steps is the timed window's fixed step count (default mode).
	steps int
	// micro is the micro-batches per optimizer step: 1 uses TrainStep,
	// more uses TrainStepAccum.
	micro int
	// ckptEvery, when > 0, saves a checkpoint after every n-th timed step.
	ckptEvery int
}

var workloads = []workload{
	{
		name:    "io_mixed",
		why:     "all blocks swap to a throttled 3-device array, so activation I/O and optimizer-state I/O contend for it; nvme and the engine pipeline do most of the work, kernels little",
		model:   nn.Config{Vocab: 64, Seq: 64, Hidden: 32, Heads: 2, Layers: 6, Batch: 2},
		swap:    map[int]engine.Tier{0: engine.SwapSSD, 1: engine.SwapSSD, 2: engine.SwapSSD, 3: engine.SwapSSD, 4: engine.SwapSSD, 5: engine.SwapSSD},
		devices: 3,
		ssd:     &nvme.Config{ReadBW: throttleReadBW, WriteBW: throttleWriteBW, StripeSize: 16 << 10, OpLatency: 80 * time.Microsecond},
		steps:   160,
		micro:   1,
	},
	{
		name:    "opt_stream",
		why:     "every block recomputes, so the only SSD traffic is the optimizer's state round trip on the throttled array; opt and nvme do the work and the activation pipeline is bypassed",
		model:   nn.Config{Vocab: 32, Seq: 64, Hidden: 64, Heads: 4, Layers: 4, Batch: 2},
		devices: 3,
		ssd:     &nvme.Config{ReadBW: throttleReadBW, WriteBW: throttleWriteBW, StripeSize: 64 << 10},
		steps:   160,
		micro:   1,
	},
	{
		name:    "compute",
		why:     "hidden 256 on unthrottled in-memory devices: tensor, pool and nn do most of the work and nvme is a memcpy, so kernel and core-scaling work shows here and I/O scheduling shows nothing",
		model:   nn.Config{Vocab: 256, Seq: 128, Hidden: 256, Heads: 8, Layers: 4, Batch: 2},
		swap:    map[int]engine.Tier{0: engine.SwapHost, 2: engine.SwapHost},
		devices: 4,
		steps:   100,
		micro:   1,
	},
	{
		name:       "accum_ckpt_file",
		why:        "the same layers used differently: file-backed devices with checksums, accumulation steps and periodic checkpoint saves, so a gain for TrainStep or the in-memory device that costs the other use shows",
		model:      nn.Config{Vocab: 128, Seq: 64, Hidden: 128, Heads: 4, Layers: 4, Batch: 2},
		swap:       map[int]engine.Tier{0: engine.SwapSSD, 1: engine.SwapHost, 3: engine.SwapSSD},
		devices:    4,
		fileBacked: true,
		ssd:        &nvme.Config{Checksums: true, StripeSize: 64 << 10},
		steps:      300,
		micro:      2,
		ckptEvery:  25,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the whole of what the engine is told. dir is the device
// directory of a file-backed workload and ignored otherwise.
func (w workload) config(seed int64, dir string) engine.Config {
	m := w.model
	m.Seed = seed
	cfg := engine.Config{
		Model:    m,
		GradMode: agoffload.Optimized,
		Swap:     w.swap,
		Devices:  w.devices,
		SSD:      w.ssd,
	}
	if w.fileBacked {
		cfg.Dir = dir
	}
	return cfg
}

// arrayConfig is the nvme.Config the engine opens for this workload, for
// probing a private array of the same shape. The 4 KiB stripe is what
// engine.New uses when Config.SSD is nil or leaves the stripe unset.
func (w workload) arrayConfig(dir string) nvme.Config {
	c := nvme.Config{}
	if w.ssd != nil {
		c = *w.ssd
	}
	if c.StripeSize == 0 {
		c.StripeSize = 4096
	}
	c.Devices = w.devices
	if w.fileBacked {
		c.Dir = dir
	}
	return c
}

// tokensPerStep is the tokens one optimizer step consumes.
func (w workload) tokensPerStep() int { return w.micro * w.model.Batch * w.model.Seq }

// blobBytes is the fp16 size of one block's activation blob, the object
// the swap path moves: every saved tensor of the block but its input.
func (w workload) blobBytes() int {
	m := w.model
	n := m.Batch * m.Seq
	elems := n*16*m.Hidden + m.Batch*m.Heads*m.Seq*m.Seq
	return 2 * elems
}

// genBatches makes the workload's batch pool from the seed alone. Each
// sequence follows a seed-drawn permutation of the vocabulary and the
// target is the next token, so the task is learnable and the loss falls.
func genBatches(m nn.Config, seed int64) []engine.Batch {
	rng := rand.New(rand.NewSource(seed))
	next := rng.Perm(m.Vocab)
	out := make([]engine.Batch, batchPool)
	for i := range out {
		b := engine.Batch{Tokens: make([][]int, m.Batch), Targets: make([][]int, m.Batch)}
		for r := 0; r < m.Batch; r++ {
			b.Tokens[r] = make([]int, m.Seq)
			b.Targets[r] = make([]int, m.Seq)
			tok := rng.Intn(m.Vocab)
			for s := 0; s < m.Seq; s++ {
				b.Tokens[r][s] = tok
				tok = next[tok]
				b.Targets[r][s] = tok
			}
		}
		out[i] = b
	}
	return out
}
