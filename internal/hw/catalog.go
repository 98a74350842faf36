package hw

import "ratel/internal/units"

// The catalog below encodes Table III (evaluation server), Table VII
// (prices), and the calibration constants documented in DESIGN.md §3.
// Bandwidth and throughput values are the paper's *measured* numbers where
// the paper reports them (Fig. 1 labels, Fig. 5c's measured-peak line), and
// datasheet-derived estimates otherwise.

// GPUs evaluated in the paper.
var (
	RTX4090 = GPU{
		Name:     "NVIDIA GeForce RTX 4090",
		Memory:   24 * units.GiB,
		PeakFP16: units.TFLOPS(150), // Fig. 5c measured peak
		PriceUSD: 1600,              // Table VII
	}
	RTX3090 = GPU{
		Name:     "NVIDIA GeForce RTX 3090",
		Memory:   24 * units.GiB,
		PeakFP16: units.TFLOPS(62),
		PriceUSD: 1100,
	}
	RTX4080 = GPU{
		Name:     "NVIDIA GeForce RTX 4080",
		Memory:   16 * units.GiB,
		PeakFP16: units.TFLOPS(80),
		PriceUSD: 1200,
	}
	A100_80G = GPU{
		Name:         "NVIDIA A100-80G",
		Memory:       80 * units.GiB,
		PeakFP16:     units.TFLOPS(270),
		HasGPUDirect: true,
		NVLink:       units.GBps(600),
		PriceUSD:     14177, // §I
	}
)

// IntelP5510 is the evaluation server's SSD (12× 3.84 TB Intel P5510).
var IntelP5510 = SSD{
	Name:     "Intel P5510 3.84TB",
	Capacity: 3840 * units.GB,
	ReadBW:   units.GBps(6.5),
	WriteBW:  units.GBps(3.8),
	PriceUSD: 308, // Table VII
}

// XeonGold5320x2 is the evaluation server's dual-socket CPU. The Adam rate
// is calibrated so that ZeRO-Infinity's serialized optimizer stage for the
// 13B model lands at the paper's ~23 s (Fig. 1a): ~12 s of CPU Adam plus
// ~11 s of SSD I/O.
var XeonGold5320x2 = CPU{
	Name:             "2x Intel Xeon Gold 5320",
	AdamParamsPerSec: 1.1e9,
	Cores:            52,
}

// PCIeGen4 is the evaluation server's fabric: the paper measures 21 GB/s
// effective per direction on the GPU link and a 32 GB/s aggregate to the SSD
// array (Fig. 1 labels).
var PCIeGen4 = Link{
	GPUPerDirection:  units.GBps(21),
	HostSSDAggregate: units.GBps(32),
}

// EvalServer builds the Table III commodity server with the given GPU,
// main-memory capacity and SSD count. The paper's full configuration is
// EvalServer(RTX4090, 768*units.GiB, 12).
func EvalServer(gpu GPU, mainMemory units.Bytes, ssds int) Server {
	return Server{
		Name:         "commodity-4u",
		GPU:          gpu,
		GPUCount:     1,
		MainMemory:   mainMemory,
		CPU:          XeonGold5320x2,
		SSD:          IntelP5510,
		SSDCount:     ssds,
		Link:         PCIeGen4,
		BasePriceUSD: 14098, // Table VII: Supermicro 4U without GPUs/SSDs
	}
}

// DGXA100 is the 8× A100-80G NVLink machine Megatron-LM runs on (Fig. 13).
func DGXA100() Server {
	return Server{
		Name:          "dgx-a100",
		GPU:           A100_80G,
		GPUCount:      8,
		MainMemory:    2 * units.TiB,
		CPU:           CPU{Name: "2x AMD EPYC 7742", AdamParamsPerSec: 2.5e9, Cores: 128},
		Link:          Link{GPUPerDirection: units.GBps(25), HostSSDAggregate: units.GBps(32)},
		FixedPriceUSD: 200000, // Table VII
	}
}

// Calibration constants shared by the capacity model and the simulator.
// They are derived from the paper's reported capacities (DESIGN.md §3).
const (
	// GPUPipelineDepth is how many transformer layers' fp16 parameters the
	// engine keeps resident on the GPU at once (current + prefetch + in
	// flight). Together with the gradient bucket this bounds the largest
	// trainable layer: the 412B model's 6 GiB layers exceed the RTX 4090 at
	// depth 3.5, matching Fig. 6a's 276B ceiling, while the 175B model's
	// 3.4 GiB layers still fit the RTX 4080 (§V-B).
	GPUPipelineDepth = 3

	// GPUGradBucketFraction sizes the device-side gradient staging bucket
	// as a fraction of the largest layer's fp16 parameters.
	GPUGradBucketFraction = 0.5

	// GPUWorkspaceFraction reserves a fraction of GPU memory for cuBLAS-like
	// workspaces, allocator slack and CUDA context.
	GPUWorkspaceFraction = 0.08

	// GPUReservedBytes is the fixed device-memory overhead (context,
	// framework).
	GPUReservedBytes = units.Bytes(1300 * units.MiB)

	// RatelHostBytesPerParam is the pinned host staging Ratel needs per
	// parameter: gradient landing buffers for active gradient offloading
	// plus optimizer-chunk double buffers and parameter staging. Calibrated
	// against Fig. 6/8: 135B fits in 128 GiB, 276B in 256 GiB, 412B would
	// need ~330 GiB (but is GPU-bound anyway).
	RatelHostBytesPerParam = 0.85

	// RatelHostBaseBytes is Ratel's fixed host overhead (runtime, I/O
	// buffers, dataset staging).
	RatelHostBaseBytes = units.Bytes(6 * units.GiB)
)
