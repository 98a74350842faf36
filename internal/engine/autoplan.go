package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ratel/internal/model"
	"ratel/internal/nn"
	"ratel/internal/plan"
	"ratel/internal/units"
)

// HWRates describes the hardware the plan should optimize for. At mini
// scale the engine's wall-clock is CPU-bound, so the rates parameterize the
// *decision*, exactly as the paper's profiling stage feeds Algorithm 1.
type HWRates struct {
	THPG         units.FLOPsPerSecond
	BWG          units.BytesPerSecond
	BWS2M, BWM2S units.BytesPerSecond
	MemAvail     units.Bytes
}

// ProfileAndPlan is the engine's hardware-aware profiling stage (§IV-B)
// followed by holistic traffic-aware planning (§IV-D): it runs one forward
// pass to measure each block's real activation footprint, estimates each
// block's FLOPs from its geometry, runs Algorithm 1, and returns both the
// plan and the block placement to configure the engine with. Swapped blocks
// land in the host tier until rates.MemAvail is exhausted, then spill to the
// SSD tier (Eq. 3's α split).
func (e *Engine) ProfileAndPlan(tokens [][]int, rates HWRates) (plan.Plan, map[int]Tier, error) {
	m := e.model
	x, err := m.Embed(tokens)
	if err != nil {
		return plan.Plan{}, nil, err
	}
	blockFLOPs := blockForwardFLOPs(e.cfg.Model)

	var layers []model.LayerProfile
	var flopf units.FLOPs
	hcur := x
	for i, b := range m.Blocks {
		boundaryBytes := units.Bytes(2 * int64(hcur.Numel()))
		y, c, err := b.Forward(hcur)
		if err != nil {
			return plan.Plan{}, nil, err
		}
		layers = append(layers,
			model.LayerProfile{
				Name:     fmt.Sprintf("block%d/input", i),
				Block:    i,
				ActBytes: boundaryBytes,
				Boundary: true,
			},
			model.LayerProfile{
				Name:     fmt.Sprintf("block%d/cache", i),
				Block:    i,
				ActBytes: units.Bytes(c.ActivationBytes()) - boundaryBytes,
				FwdFLOPs: blockFLOPs,
			},
		)
		flopf += blockFLOPs
		hcur = y
	}

	profile := plan.Profile{
		FLOPf:     flopf,
		THPG:      rates.THPG,
		BWG:       rates.BWG,
		BWS2M:     rates.BWS2M,
		BWM2S:     rates.BWM2S,
		Params:    int64(m.NumParams()),
		MemAvailM: rates.MemAvail,
		Layers:    layers,
	}
	pl, err := plan.Optimize(profile)
	if err != nil {
		return plan.Plan{}, nil, err
	}
	var swapped []int
	for name := range pl.SwapSet() {
		if rest, ok := strings.CutSuffix(name, "/cache"); ok {
			if idx, err := strconv.Atoi(strings.TrimPrefix(rest, "block")); err == nil {
				swapped = append(swapped, idx)
			}
		}
	}
	sort.Ints(swapped)
	swap := make(map[int]Tier, len(swapped))
	hostLeft := rates.MemAvail
	for _, idx := range swapped {
		size := layers[2*idx+1].ActBytes + layers[2*idx].ActBytes
		if size <= hostLeft {
			swap[idx] = SwapHost
			hostLeft -= size
		} else {
			swap[idx] = SwapSSD
		}
	}
	return pl, swap, nil
}

// blockForwardFLOPs is what one block's forward executes, two per
// multiply-add of its matrix products: 24·t·h² for the four projections
// (t = batch·seq tokens; QKV 3h², out h², the MLP 4h² + 4h² multiply-adds a
// token) and 2·t·seq·h for attention, whose two seq×seq products per head
// compute the causal half only. A block's recompute costs the same but for
// the FC2 product Recompute stops short of — and nothing at all for a
// trailing Recompute block, whose cache the engine keeps across the head;
// the plan charges neither difference yet (ROADMAP item 3).
func blockForwardFLOPs(cfg nn.Config) units.FLOPs {
	t := int64(cfg.Batch) * int64(cfg.Seq)
	h := int64(cfg.Hidden)
	return units.FLOPs(24*t*h*h + 2*t*int64(cfg.Seq)*h)
}

// validSwap rejects a placement naming a block the model does not have or a
// tier that does not exist: either would silently train under another.
func validSwap(swap map[int]Tier, layers int) error {
	for i, t := range swap {
		if i < 0 || i >= layers || !t.valid() {
			return fmt.Errorf("engine: Swap[%d] = %v on a %d-block model", i, t, layers)
		}
	}
	return nil
}

// SetSwap installs a block placement chosen by ProfileAndPlan, and the step
// plan for it, between steps. Blocks that left the host tier give their blob
// up.
func (e *Engine) SetSwap(swap map[int]Tier) error {
	if err := validSwap(swap, len(e.arena.host)); err != nil {
		return err
	}
	e.cfg.Swap = swap
	e.replan()
	for i := range e.arena.host {
		if swap[i] != SwapHost {
			e.arena.host[i].blob = nil
		}
	}
	return nil
}
