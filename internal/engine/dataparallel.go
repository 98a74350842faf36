package engine

import (
	"fmt"
	"sync"

	"ratel/internal/nn"
)

// DataParallel trains replicas of the same model on shards of a global
// batch (the paper's multi-GPU configuration, §V-G): each replica runs
// forward/backward concurrently, gradients are all-reduced (averaged), one
// optimizer pass updates the shared model states, and the fresh fp16
// parameters are broadcast back to every replica.
//
// Replica 0 owns the NVMe-homed model states; the others act as pure
// compute replicas, exactly like additional GPUs sharing the host's SSD
// array.
type DataParallel struct {
	replicas []*Engine
}

// NewDataParallel builds n identically-initialized replicas.
func NewDataParallel(cfg Config, n int) (*DataParallel, error) {
	if n < 1 {
		return nil, fmt.Errorf("engine: need at least one replica, got %d", n)
	}
	if cfg.DelayedUpdate {
		return nil, fmt.Errorf("engine: data parallelism with delayed update is unsupported")
	}
	dp := &DataParallel{}
	for i := 0; i < n; i++ {
		e, err := New(cfg)
		if err != nil {
			dp.Close()
			return nil, err
		}
		dp.replicas = append(dp.replicas, e)
	}
	return dp, nil
}

// Replicas reports the degree of parallelism.
func (dp *DataParallel) Replicas() int { return len(dp.replicas) }

// Model exposes replica 0's model (the state owner).
func (dp *DataParallel) Model() *nn.Model { return dp.replicas[0].model }

// Close releases every replica.
func (dp *DataParallel) Close() error {
	var first error
	for _, e := range dp.replicas {
		if e == nil {
			continue
		}
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TrainStep runs one data-parallel iteration over one shard per replica.
// The math is identical to gradient accumulation over the same shards: the
// all-reduce averages the per-shard gradients before a single synchronous
// optimizer pass.
func (dp *DataParallel) TrainStep(shards []Batch) (float64, error) {
	n := len(dp.replicas)
	if len(shards) != n {
		return 0, fmt.Errorf("engine: %d shards for %d replicas", len(shards), n)
	}
	owner := dp.replicas[0]
	groups := make([][]nn.ParamGroup, n)
	for i, e := range dp.replicas {
		e.model.ZeroGrads()
		groups[i] = e.model.ParamGroups()
	}

	// Concurrent forward/backward on every replica.
	losses := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range dp.replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			losses[i], _, _, errs[i] = dp.replicas[i].runBatch(shards[i].Tokens, shards[i].Targets, false)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}

	// All-reduce: sum every replica's gradients into replica 0, then scale
	// by 1/n — the ring all-reduce's arithmetic, serialized for
	// reproducibility (replica order is fixed).
	for gi := range groups[0] {
		for pi := range groups[0][gi].Params {
			dst := groups[0][gi].Params[pi].G
			for r := 1; r < n; r++ {
				src := groups[r][gi].Params[pi].G
				for k := range dst.Data {
					dst.Data[k] += src.Data[k]
				}
			}
			dst.Scale(1 / float32(n))
		}
	}

	// One synchronous optimizer pass over the owner's states, in
	// gradient-arrival order.
	owner.beginStep()
	for gi := len(groups[0]) - 1; gi >= 0; gi-- {
		if err := owner.optimizer.UpdateGroup(groups[0][gi]); err != nil {
			return 0, err
		}
	}

	// Broadcast the fresh fp16 parameters to the other replicas.
	for r := 1; r < n; r++ {
		for gi := range groups[0] {
			for pi := range groups[0][gi].Params {
				copy(groups[r][gi].Params[pi].W.Data, groups[0][gi].Params[pi].W.Data)
			}
		}
	}

	owner.mu.Lock()
	owner.stats.Steps++
	owner.mu.Unlock()
	var total float64
	for _, l := range losses {
		total += l
	}
	return total / float64(n), nil
}
