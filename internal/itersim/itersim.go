// Package itersim assembles and executes one training iteration's schedule
// for a (policy, model, batch, server) combination on the discrete-event
// simulator, and reports the stage times, utilizations and throughput the
// paper's figures are made of.
//
// The schedule is built at transformer-block granularity: for each block the
// forward stage prefetches fp16 parameters (SSD→host→GPU as the policy's
// state placement dictates), computes, and offloads the planned share of
// activations (GPU→host, host→SSD); the backward stage fetches activations
// back, recomputes the discarded ones, computes gradients, and hands them to
// the optimizer according to the policy's gradient-offloading mode (package
// agoffload) or streams model states through the GPU for in-core optimizers
// (G10).
package itersim

import (
	"fmt"

	"ratel/internal/agoffload"
	"ratel/internal/capacity"
	"ratel/internal/hw"
	"ratel/internal/model"
	"ratel/internal/plan"
	"ratel/internal/sim"
	"ratel/internal/strategy"
	"ratel/internal/units"
)

// Report is the outcome of simulating one iteration.
type Report struct {
	Policy string
	Model  string
	Batch  int
	GPUs   int

	// Stage boundaries on the simulated timeline.
	ForwardEnd  units.Seconds
	BackwardEnd units.Seconds
	Makespan    units.Seconds

	// OptimizerTail is the time after backward ends during which only the
	// optimizer pipeline still runs (zero when fully hidden, §IV-C).
	OptimizerTail units.Seconds

	// Activation decision actually simulated.
	AG2M       units.Bytes
	AlphaBytes units.Bytes
	FLOPr      units.FLOPs

	// Throughput metrics.
	TokensPerSec float64
	ImagesPerSec float64
	TFLOPS       float64

	// GPUBusyFrac is the fraction of the iteration the GPU computes
	// (Fig. 2b).
	GPUBusyFrac float64
	// OptimizerShare is the optimizer tail's share of the iteration
	// (Fig. 2c).
	OptimizerShare float64

	// Result retains the full timeline for trace rendering.
	Result sim.Result
}

// actDecision is the simulated activation split.
type actDecision struct {
	hostFrac  float64 // fraction of each block's swap that stays in host
	swapBytes map[string]units.Bytes
	ag2m      units.Bytes
	alpha     units.Bytes
	flopr     units.FLOPs
}

// decideActivations evaluates the policy's activation strategy.
func decideActivations(p strategy.Policy, cfg model.Config, batch int, srv hw.Server) (actDecision, error) {
	layers := cfg.LayerProfiles(batch)
	profile := capacity.PlannerProfile(p, cfg, batch, srv)
	memAvail := profile.MemAvailM

	d := actDecision{swapBytes: make(map[string]units.Bytes)}
	swap := func(l model.LayerProfile) {
		d.swapBytes[l.Name] += l.ActBytes
		d.ag2m += l.ActBytes
	}
	d.flopr = cfg.ForwardFLOPs(batch)

	switch p.Act {
	case strategy.ActPlanner:
		pl, err := plan.Optimize(profile)
		if err != nil {
			return d, err
		}
		for _, l := range pl.Swapped {
			d.swapBytes[l.Name] += l.ActBytes
		}
		d.ag2m = pl.AG2M
		d.alpha = pl.AlphaBytes
		d.flopr = pl.FLOPr
	case strategy.ActPlannerHostOnly, strategy.ActCheckmate:
		// The host-only planner (Ratel+CpuAct) and Checkmate's cost-model
		// split: run the planner, then truncate the swap set to what main
		// memory holds — everything beyond is recomputed instead.
		pl, err := plan.Optimize(profile)
		if err != nil {
			return d, err
		}
		for _, l := range pl.Swapped {
			if d.ag2m+l.ActBytes > memAvail && !l.Boundary {
				continue
			}
			swap(l)
			d.flopr -= l.FwdFLOPs
		}
	case strategy.ActInterBlockHost:
		for _, l := range layers {
			if l.Boundary {
				swap(l)
				d.flopr -= l.FwdFLOPs
			}
		}
	case strategy.ActKeepGPU:
		// Inter-block activations stay on GPU: no transfer, but no
		// recomputation of them either.
		for _, l := range layers {
			if l.Boundary {
				d.flopr -= l.FwdFLOPs
			}
		}
	case strategy.ActAllToSSD, strategy.ActAllToSSDNoStates:
		for _, l := range layers {
			swap(l)
		}
		d.flopr = 0
		if over := d.ag2m - memAvail; over > 0 {
			d.alpha = over
		}
	case strategy.ActCapuchin:
		threshold := float64(profile.THPG) / float64(profile.BWG)
		for _, l := range layers {
			if l.Boundary || l.OffloadingBenefit() > threshold {
				swap(l)
				d.flopr -= l.FwdFLOPs
			}
		}
	case strategy.ActAllOnGPU:
		d.flopr = 0
	default:
		return d, fmt.Errorf("itersim: unhandled activation policy %v", p.Act)
	}

	if d.ag2m > 0 {
		d.hostFrac = 1 - float64(d.alpha)/float64(d.ag2m)
	}
	if d.flopr < 0 {
		d.flopr = 0
	}
	return d, nil
}

// blockSpec aggregates one schedule unit (embedding, one transformer block,
// or the head).
type blockSpec struct {
	label    string
	params   int64
	fwdFLOPs units.FLOPs
	actSwap  units.Bytes // total activation bytes offloaded
	recomp   units.FLOPs // recomputation run during backward
}

// buildBlocks groups the per-operator profiles into schedule units.
func buildBlocks(cfg model.Config, batch int, d actDecision) []blockSpec {
	h := int64(cfg.Hidden)
	embedParams := int64(0)
	if cfg.Kind == model.DecoderLM {
		embedParams = int64(cfg.Vocab)*h + int64(cfg.SeqLen)*h
	} else {
		embedParams = 8 * h * h
	}
	blockParams := (cfg.Params() - embedParams) / int64(cfg.Layers)

	specs := make([]blockSpec, 0, cfg.Layers+2)
	specs = append(specs, blockSpec{label: "embedding", params: embedParams})
	for i := 0; i < cfg.Layers; i++ {
		specs = append(specs, blockSpec{label: fmt.Sprintf("block%d", i), params: blockParams})
	}
	// The LM head shares the embedding matrix (tied weights), so it adds no
	// parameters or optimizer work of its own.
	specs = append(specs, blockSpec{label: "head", params: 0})

	index := func(block int, name string) int {
		switch {
		case name == "embedding":
			return 0
		case name == "head":
			return len(specs) - 1
		default:
			return block + 1
		}
	}
	for _, l := range cfg.LayerProfiles(batch) {
		i := index(l.Block, l.Name)
		specs[i].fwdFLOPs += l.FwdFLOPs
		if b, ok := d.swapBytes[l.Name]; ok {
			specs[i].actSwap += b
		} else {
			specs[i].recomp += l.FwdFLOPs
		}
	}
	// Align total recomputation with the decision (planner truncation can
	// leave rounding).
	return specs
}

// rates are the policy-derated resource speeds.
type rates struct {
	thp          units.FLOPsPerSecond
	bwG          units.BytesPerSecond
	bwS2M, bwM2S units.BytesPerSecond
	adam         float64
}

func effectiveRates(p strategy.Policy, srv hw.Server) rates {
	return rates{
		thp:   units.FLOPsPerSecond(float64(srv.GPU.PeakFP16) * p.ComputeEff),
		bwG:   units.BytesPerSecond(float64(srv.Link.GPUPerDirection) * p.LinkEff),
		bwS2M: units.BytesPerSecond(float64(srv.BWS2M()) * p.SSDEff),
		bwM2S: units.BytesPerSecond(float64(srv.BWM2S()) * p.SSDEff),
		adam:  srv.CPU.AdamParamsPerSec * p.AdamEff,
	}
}

// Simulate runs one iteration and reports its timeline. It fails when the
// configuration does not fit the machine (package capacity).
func Simulate(p strategy.Policy, cfg model.Config, batch int, srv hw.Server) (Report, error) {
	return simulate(p, cfg, batch, srv, 1)
}

// simulate optionally divides SSD bandwidth among nShare GPUs (multi-GPU
// data parallelism).
func simulate(p strategy.Policy, cfg model.Config, batch int, srv hw.Server, nShare int) (Report, error) {
	if err := capacity.Check(p, cfg, batch, srv); err != nil {
		return Report{}, err
	}
	d, err := decideActivations(p, cfg, batch, srv)
	if err != nil {
		return Report{}, err
	}
	r := effectiveRates(p, srv)
	shard := int64(1)
	if nShare > 1 {
		// Data-parallel ranks share the SSD array and the CPU optimizer,
		// and shard the model states ZeRO-style: each rank streams and
		// updates 1/N of the states while all-gathering full fp16
		// parameters over its own PCIe link.
		r.bwS2M /= units.BytesPerSecond(nShare)
		r.bwM2S /= units.BytesPerSecond(nShare)
		r.adam /= float64(nShare)
		shard = int64(nShare)
	}
	specs := buildBlocks(cfg, batch, d)

	b := newBuilder()
	statesStream := p.States != strategy.StatesGPU
	statesOnSSD := p.States == strategy.StatesSSD

	// ---------- Forward ----------
	prevCompute := -1
	fwdCompute := make([]int, len(specs))
	actReady := make([]int, len(specs)) // last task holding the block's activations
	for i, s := range specs {
		deps := []int{}
		if statesStream && s.params > 0 {
			fetch := -1
			if statesOnSSD {
				fetch = b.add(sim.SSDBus, s.label+"/fwd-pread", units.TransferTime(units.Bytes(2*s.params/shard), r.bwS2M))
			}
			m2g := b.add(sim.PCIeM2G, s.label+"/fwd-pfetch", units.TransferTime(units.Bytes(2*s.params), r.bwG), fetch)
			deps = append(deps, m2g)
		}
		if prevCompute >= 0 {
			deps = append(deps, prevCompute)
		}
		c := b.add(sim.GPUCompute, s.label+"/fwd", units.ComputeTime(s.fwdFLOPs, r.thp), deps...)
		fwdCompute[i] = c
		prevCompute = c
		actReady[i] = -1
		if s.actSwap > 0 {
			g2m := b.add(sim.PCIeG2M, s.label+"/act-out", units.TransferTime(s.actSwap, r.bwG), c)
			actReady[i] = g2m
			if ssdPart := units.Bytes(float64(s.actSwap) * (1 - d.hostFrac)); ssdPart > 0 {
				actReady[i] = b.add(sim.SSDBus, s.label+"/act-spill", units.TransferTime(ssdPart, r.bwM2S), g2m)
			}
		}
		// Colossal-AI's Gemini evicts the chunk back to host after use.
		if p.HostStateThrash && s.params > 0 {
			b.add(sim.PCIeG2M, s.label+"/fwd-evict", units.TransferTime(units.Bytes(2*s.params), r.bwG), c)
		}
	}
	forwardTasks := len(b.tasks)

	// ---------- Backward ----------
	prevCompute = fwdCompute[len(specs)-1]
	gradArrival := make([]int, len(specs))
	for i := len(specs) - 1; i >= 0; i-- {
		s := specs[i]
		deps := []int{prevCompute}
		if statesStream && s.params > 0 {
			fetch := -1
			if statesOnSSD {
				fetch = b.add(sim.SSDBus, s.label+"/bwd-pread", units.TransferTime(units.Bytes(2*s.params/shard), r.bwS2M))
			}
			m2g := b.add(sim.PCIeM2G, s.label+"/bwd-pfetch", units.TransferTime(units.Bytes(2*s.params), r.bwG), fetch)
			deps = append(deps, m2g)
		}
		if s.actSwap > 0 {
			fetch := -1
			if ssdPart := units.Bytes(float64(s.actSwap) * (1 - d.hostFrac)); ssdPart > 0 {
				fetch = b.add(sim.SSDBus, s.label+"/act-read", units.TransferTime(ssdPart, r.bwS2M), actReady[i])
			}
			m2g := b.add(sim.PCIeM2G, s.label+"/act-in", units.TransferTime(s.actSwap, r.bwG), fetch, actReady[i])
			deps = append(deps, m2g)
		}
		c := b.add(sim.GPUCompute, s.label+"/bwd",
			units.ComputeTime(s.recomp+2*s.fwdFLOPs, r.thp), deps...)
		prevCompute = c
		// Gemini also evicts the chunk's working copy after backward.
		if p.HostStateThrash && s.params > 0 {
			b.add(sim.PCIeG2M, s.label+"/bwd-evict", units.TransferTime(units.Bytes(2*s.params), r.bwG), c)
		}

		gradArrival[i] = -1
		if s.params > 0 {
			switch {
			case p.Optimizer == strategy.OptCPU:
				g2m := b.add(sim.PCIeG2M, s.label+"/grad-out", units.TransferTime(units.Bytes(2*s.params), r.bwG), c)
				gradArrival[i] = g2m
				if statesOnSSD && p.GradMode == agoffload.Serialized {
					// ZeRO-Infinity spills gradients to SSD before the
					// optimizer stage rereads them.
					gradArrival[i] = b.add(sim.SSDBus, s.label+"/grad-spill", units.TransferTime(units.Bytes(2*s.params), r.bwM2S), g2m)
				}
			case p.Optimizer == strategy.OptGPU && statesOnSSD:
				// G10: gradients stay on GPU; the optimizer stage streams
				// states through the GPU below.
				gradArrival[i] = c
			}
		}
	}
	backwardTasks := len(b.tasks)

	// ---------- Optimizer ----------
	switch p.Optimizer {
	case strategy.OptCPU:
		var labels []string
		var params []int64
		var arrivals []int
		// Chunks are handled in gradient-arrival order — backward runs the
		// blocks in reverse, so the head-side blocks' handlers fire first
		// (§IV-C: "gradient tensors arrive ... with a decreasing index").
		for i := len(specs) - 1; i >= 0; i-- {
			s := specs[i]
			if s.params == 0 {
				continue
			}
			labels = append(labels, s.label)
			params = append(params, s.params/shard)
			arrivals = append(arrivals, gradArrival[i])
		}
		ssdRead, ssdWrite := r.bwS2M, r.bwM2S
		if !statesOnSSD {
			ssdRead, ssdWrite = 0, 0 // states resident in main memory
		}
		chunks, err := agoffload.ChunksForBlocks(labels, params, arrivals)
		if err != nil {
			return Report{}, err
		}
		tasks, next, _, err := agoffload.ScheduleWith(p.GradMode, chunks, b.next, agoffload.Rates{
			BWS2M: ssdRead, BWM2S: ssdWrite, AdamParamsPerSec: r.adam,
		}, p.OptSched)
		if err != nil {
			return Report{}, err
		}
		b.tasks = append(b.tasks, tasks...)
		b.next = next
	case strategy.OptGPU:
		if statesOnSSD {
			// G10-style: stream 12 bytes/param in, update on GPU, stream
			// 14 bytes/param out, per block, pipelined, after backward.
			for i, s := range specs {
				if s.params == 0 {
					continue
				}
				read := b.add(sim.SSDBus, s.label+"/opt-sread", units.TransferTime(units.Bytes(12*s.params), r.bwS2M), gradArrival[i], prevCompute)
				in := b.add(sim.PCIeM2G, s.label+"/opt-sin", units.TransferTime(units.Bytes(12*s.params), r.bwG), read)
				upd := b.add(sim.GPUCompute, s.label+"/opt-gpu", units.ComputeTime(units.FLOPs(20*float64(s.params)), r.thp), in)
				out := b.add(sim.PCIeG2M, s.label+"/opt-sout", units.TransferTime(units.Bytes(14*s.params), r.bwG), upd)
				b.add(sim.SSDBus, s.label+"/opt-swrite", units.TransferTime(units.Bytes(14*s.params), r.bwM2S), out)
			}
		} else {
			// Everything resident: one in-core update.
			b.add(sim.GPUCompute, "opt-gpu", units.ComputeTime(units.FLOPs(20*float64(cfg.Params())), r.thp), prevCompute)
		}
	}

	res, err := sim.Run(b.tasks)
	if err != nil {
		return Report{}, err
	}

	rep := Report{
		Policy: p.Name, Model: cfg.Name, Batch: batch, GPUs: 1,
		AG2M: d.ag2m, AlphaBytes: d.alpha, FLOPr: d.flopr,
		Makespan: res.Makespan, Result: res,
	}
	for id := 0; id < forwardTasks; id++ {
		if sp, ok := res.Spans[id]; ok && sp.Task.Resource == sim.GPUCompute && sp.End > rep.ForwardEnd {
			rep.ForwardEnd = sp.End
		}
	}
	for id := forwardTasks; id < backwardTasks; id++ {
		if sp, ok := res.Spans[id]; ok && sp.End > rep.BackwardEnd {
			rep.BackwardEnd = sp.End
		}
	}
	if rep.BackwardEnd < rep.ForwardEnd {
		rep.BackwardEnd = rep.ForwardEnd
	}
	rep.OptimizerTail = rep.Makespan - rep.BackwardEnd
	if rep.OptimizerTail < 0 {
		rep.OptimizerTail = 0
	}

	iter := float64(rep.Makespan)
	if iter > 0 {
		rep.TokensPerSec = float64(cfg.TokensPerIteration(batch)) / iter
		rep.ImagesPerSec = float64(cfg.ImagesPerIteration(batch)) / iter
		rep.TFLOPS = units.Throughput(3*cfg.ForwardFLOPs(batch), rep.Makespan).TFLOPSf()
		rep.GPUBusyFrac = res.Utilization(sim.GPUCompute)
		rep.OptimizerShare = float64(rep.OptimizerTail) / iter
	}
	return rep, nil
}

// builder allocates sequential task IDs.
type builder struct {
	tasks []sim.Task
	next  int
}

func newBuilder() *builder { return &builder{} }

// add appends a task; negative deps are skipped.
func (b *builder) add(res sim.ResourceID, label string, dur units.Seconds, deps ...int) int {
	var clean []int
	for _, d := range deps {
		if d >= 0 {
			clean = append(clean, d)
		}
	}
	id := b.next
	b.next++
	b.tasks = append(b.tasks, sim.Task{ID: id, Label: label, Resource: res, Duration: dur, Deps: clean})
	return id
}

// StageUtilization reports, per stage, the busy fraction of each resource
// within the stage window — the Fig. 1 annotation data.
func (r Report) StageUtilization() map[string]map[sim.ResourceID]float64 {
	windows := map[string][2]units.Seconds{
		"forward":   {0, r.ForwardEnd},
		"backward":  {r.ForwardEnd, r.BackwardEnd},
		"optimizer": {r.BackwardEnd, r.Makespan},
	}
	resources := []sim.ResourceID{sim.GPUCompute, sim.PCIeM2G, sim.PCIeG2M, sim.SSDBus, sim.CPUAdam}
	out := make(map[string]map[sim.ResourceID]float64, len(windows))
	for stage, w := range windows {
		span := w[1] - w[0]
		m := make(map[sim.ResourceID]float64, len(resources))
		for _, res := range resources {
			if span > 0 {
				m[res] = float64(r.Result.WindowBusy(res, w[0], w[1])) / float64(span)
			}
		}
		out[stage] = m
	}
	return out
}
