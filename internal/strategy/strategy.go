// Package strategy encodes the tensor-placement and scheduling policy of
// every system the paper evaluates, as the simulator and the capacity model
// consume them: where model states live, where the optimizer runs, how
// gradients are offloaded, and how activations are managed.
//
// Each policy also carries effective-efficiency factors that calibrate the
// reproduction to the paper's measured behaviour (Fig. 1/2 labels); they
// model framework overheads — unpinned bounce-buffer copies, small transfer
// granularity, chunk management — that the paper observes but does not
// decompose. DESIGN.md §3 documents the anchors.
package strategy

import (
	"fmt"

	"ratel/internal/agoffload"
)

// StatePlace says where the model states (P32, OS32, G16, P16 home) live.
type StatePlace int

// Model-state placements.
const (
	StatesSSD  StatePlace = iota // ZeRO-Infinity, G10, Ratel
	StatesHost                   // ZeRO-Offload, Colossal-AI
	StatesGPU                    // FlashNeuron, Fast-DiT, Megatron-LM
)

// String names the placement.
func (s StatePlace) String() string {
	return [...]string{"states-ssd", "states-host", "states-gpu"}[s]
}

// OptimizerPlace says where Adam executes.
type OptimizerPlace int

// Optimizer placements.
const (
	OptCPU OptimizerPlace = iota // out-of-core CPU Adam
	OptGPU                       // in-core GPU Adam (G10, FlashNeuron, ...)
)

// String names the optimizer placement.
func (o OptimizerPlace) String() string {
	return [...]string{"opt-cpu", "opt-gpu"}[o]
}

// ActPolicy selects the activation-management strategy (§IV-D and the
// Fig. 9a baselines).
type ActPolicy int

// Activation policies.
const (
	// ActInterBlockHost swaps only the inter-block activations to main
	// memory and recomputes the rest (ZeRO-Infinity, ZeRO-Offload,
	// "Ratel+ZeRO"/"Ratel+DS").
	ActInterBlockHost ActPolicy = iota
	// ActKeepGPU keeps inter-block activations in GPU memory and recomputes
	// the rest (Colossal-AI).
	ActKeepGPU
	// ActAllToSSD swaps all activations to unified host/SSD memory with no
	// recomputation (G10, and "Ratel+G10").
	ActAllToSSD
	// ActPlanner runs Ratel's holistic traffic-aware planner (Algorithm 1).
	ActPlanner
	// ActPlannerHostOnly is the planner restricted to main memory
	// ("Ratel+CpuAct").
	ActPlannerHostOnly
	// ActCapuchin swaps to main memory the layers whose recompute time
	// exceeds their GPU<->host transfer time, ignoring SSD and model-state
	// traffic (Capuchin, "Ratel+Cap").
	ActCapuchin
	// ActCheckmate picks a cost-model-optimal recompute/host-swap split,
	// also ignoring SSD and model-state traffic (Checkmate, "Ratel+CM").
	ActCheckmate
	// ActAllToSSDNoStates offloads all activations to SSD while model
	// states stay on the GPU (FlashNeuron).
	ActAllToSSDNoStates
	// ActAllOnGPU keeps everything resident (Fast-DiT, Megatron-LM).
	ActAllOnGPU
)

// String names the activation policy.
func (a ActPolicy) String() string {
	return [...]string{"act-interblock-host", "act-keep-gpu", "act-all-ssd",
		"act-planner", "act-planner-host-only", "act-capuchin",
		"act-checkmate", "act-all-ssd-no-states", "act-all-gpu"}[a]
}

// Policy is a complete system description.
type Policy struct {
	Name      string
	States    StatePlace
	Optimizer OptimizerPlace
	// GradMode applies when Optimizer == OptCPU.
	GradMode agoffload.Mode
	// OptSched tunes the Readiness gradient mode (prefetch depth, duplex
	// SSD resources); the zero value takes the defaults.
	OptSched agoffload.Options
	Act      ActPolicy

	// LinkEff derates the effective GPU<->host PCIe bandwidth the system
	// achieves (1.0 = the measured link peak). DeepSpeed-style frameworks
	// move tensors through unpinned bounce buffers at small granularity,
	// which the paper's Fig. 1a utilization labels put at a small fraction
	// of the link peak.
	LinkEff float64
	// SSDEff derates the effective SSD bandwidth.
	SSDEff float64
	// AdamEff derates the CPU Adam rate.
	AdamEff float64
	// ComputeEff derates GPU compute throughput (chunk-manager stalls).
	ComputeEff float64
	// HostStateThrash, when true, models Gemini-style chunk management that
	// streams the working states host->GPU->host around every stage
	// (Colossal-AI).
	HostStateThrash bool
	// AssumeGPUDirect lets a GPUDirect-dependent design run on consumer
	// GPUs anyway, as the paper does when simulating G10 (§III-C).
	AssumeGPUDirect bool
	// RequiresGPUDirect marks designs that cannot run without GPUDirect.
	RequiresGPUDirect bool
	// TensorParallel marks Megatron-style execution, where model states are
	// sharded across the server's GPUs and activations stay resident.
	TensorParallel bool
}

// Validate rejects nonsensical policies.
func (p Policy) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("strategy: unnamed policy")
	}
	if p.LinkEff <= 0 || p.LinkEff > 1 || p.SSDEff <= 0 || p.SSDEff > 1 ||
		p.AdamEff <= 0 || p.AdamEff > 1 || p.ComputeEff <= 0 || p.ComputeEff > 1 {
		return fmt.Errorf("strategy: %s has efficiency factors outside (0,1]", p.Name)
	}
	if p.States == StatesGPU && p.Act == ActPlanner {
		return fmt.Errorf("strategy: %s plans SSD activation traffic with GPU-resident states", p.Name)
	}
	return nil
}

// The evaluated systems. Efficiency calibration anchors:
//   - ZeRO-Infinity 13B/batch-32: forward ≈14 s (M2G-bound at ~8% link
//     utilization), backward ≈26 s, optimizer ≈23 s, GPU busy ≈36%
//     (Fig. 1a, Fig. 2b/2c).
//   - Ratel same workload: forward ≈5 s, backward ≈20 s, no optimizer
//     stage (Fig. 1c).
//   - Colossal-AI: GPU busy ≈12% (§III-B).
var (
	// Ratel is the full system: planner + optimized active gradient
	// offloading.
	Ratel = Policy{
		Name: "Ratel", States: StatesSSD, Optimizer: OptCPU,
		GradMode: agoffload.Optimized, Act: ActPlanner,
		LinkEff: 1, SSDEff: 1, AdamEff: 1, ComputeEff: 1,
	}
	// RatelNaive uses the Fig. 3a per-tensor serialized handlers.
	RatelNaive = with(Ratel, "Ratel-Naive", func(p *Policy) { p.GradMode = agoffload.Naive })
	// RatelZeRO serializes backward and optimizer like ZeRO-Infinity but
	// keeps the rest of Ratel ("Ratel+ZeRO" in Fig. 7, "Ratel+DS" in
	// Table V uses the static activation split too — see RatelDS).
	RatelZeRO = with(Ratel, "Ratel+ZeRO", func(p *Policy) { p.GradMode = agoffload.Serialized })
	// RatelDS statically swaps inter-block activations only (Fig. 9a).
	RatelDS = with(Ratel, "Ratel+DS", func(p *Policy) { p.Act = ActInterBlockHost })
	// RatelCpuAct swaps activations only to main memory (Fig. 8).
	RatelCpuAct = with(Ratel, "Ratel+CpuAct", func(p *Policy) { p.Act = ActPlannerHostOnly })
	// RatelCap uses Capuchin's swap/recompute policy (Fig. 9a).
	RatelCap = with(Ratel, "Ratel+Cap", func(p *Policy) { p.Act = ActCapuchin })
	// RatelG10 uses G10's swap-everything policy (Fig. 9a).
	RatelG10 = with(Ratel, "Ratel+G10", func(p *Policy) { p.Act = ActAllToSSD })
	// RatelCM uses Checkmate's cost-model policy (Fig. 9a).
	RatelCM = with(Ratel, "Ratel+CM", func(p *Policy) { p.Act = ActCheckmate })

	// ZeROInfinity offloads model states to SSD, executes a serialized CPU
	// optimizer stage, and statically swaps inter-block activations to main
	// memory (DeepSpeed 0.9.3 configuration of §V-A).
	ZeROInfinity = Policy{
		Name: "ZeRO-Infinity", States: StatesSSD, Optimizer: OptCPU,
		GradMode: agoffload.Serialized, Act: ActInterBlockHost,
		LinkEff: 0.09, SSDEff: 0.45, AdamEff: 1, ComputeEff: 1,
	}
	// ZeROOffload keeps model states in main memory (no SSD traffic) with
	// the same DeepSpeed data path; the one-step-delayed update is disabled
	// (§V-A), so the optimizer stage is serialized.
	ZeROOffload = Policy{
		Name: "ZeRO-Offload", States: StatesHost, Optimizer: OptCPU,
		GradMode: agoffload.Serialized, Act: ActInterBlockHost,
		LinkEff: 0.09, SSDEff: 1, AdamEff: 1, ComputeEff: 1,
	}
	// ColossalAI (Gemini) keeps states in host chunks that thrash through
	// GPU memory, keeps inter-block activations on GPU, and recomputes the
	// rest.
	ColossalAI = Policy{
		Name: "Colossal-AI", States: StatesHost, Optimizer: OptCPU,
		GradMode: agoffload.Serialized, Act: ActKeepGPU,
		LinkEff: 0.05, SSDEff: 1, AdamEff: 0.3, ComputeEff: 0.7,
		HostStateThrash: true,
	}
	// FlashNeuron keeps model states on the GPU and offloads activations to
	// SSD (the paper's POSIX-file prototype, §V-A).
	FlashNeuron = Policy{
		Name: "FlashNeuron", States: StatesGPU, Optimizer: OptGPU,
		Act:     ActAllToSSDNoStates,
		LinkEff: 0.8, SSDEff: 0.8, AdamEff: 1, ComputeEff: 1,
	}
	// G10 offloads everything to unified host/SSD memory, runs Adam on the
	// GPU, and depends on GPUDirect; the paper simulates it with GPUDirect
	// assumed present and full pipelining (§III-C).
	G10 = Policy{
		Name: "G10", States: StatesSSD, Optimizer: OptGPU,
		Act:     ActAllToSSD,
		LinkEff: 1, SSDEff: 1, AdamEff: 1, ComputeEff: 1,
		RequiresGPUDirect: true, AssumeGPUDirect: true,
	}
	// FastDiT keeps everything GPU-resident (Fig. 12 baseline).
	FastDiT = Policy{
		Name: "Fast-DiT", States: StatesGPU, Optimizer: OptGPU,
		Act:     ActAllOnGPU,
		LinkEff: 1, SSDEff: 1, AdamEff: 1, ComputeEff: 1,
	}
	// Megatron shards the model across the DGX's GPUs with tensor
	// parallelism and no offloading (Fig. 13 baseline).
	Megatron = Policy{
		Name: "Megatron-LM", States: StatesGPU, Optimizer: OptGPU,
		Act:     ActAllOnGPU,
		LinkEff: 1, SSDEff: 1, AdamEff: 1, ComputeEff: 0.5,
		TensorParallel: true,
	}
)

// All lists every predefined policy.
func All() []Policy {
	return []Policy{Ratel, RatelNaive, RatelZeRO, RatelDS, RatelCpuAct,
		RatelCap, RatelG10, RatelCM, ZeROInfinity, ZeROOffload, ColossalAI,
		FlashNeuron, G10, FastDiT, Megatron}
}

// ByName looks a policy up.
func ByName(name string) (Policy, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("strategy: unknown policy %q", name)
}

func with(base Policy, name string, mut func(*Policy)) Policy {
	p := base
	p.Name = name
	mut(&p)
	return p
}
