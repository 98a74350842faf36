// Package agoffload implements active gradient offloading (§IV-C): the
// out-of-core CPU optimizer consumes gradients as they arrive in main
// memory during backward propagation. It builds the optimizer part of an
// iteration schedule in three modes:
//
//   - Serialized: the optimizer runs as a separate stage after backward
//     propagation finishes (what ZeRO-Infinity does; "Ratel+ZeRO" in
//     Fig. 7).
//   - Naive: each gradient's handler — SSD→Main state read, CPU update,
//     Main→SSD write-back — runs as soon as the gradient arrives, but the
//     three steps are strictly serialized per tensor (Fig. 3a).
//   - Optimized: the handler steps are software-pipelined so the SSD I/O of
//     one tensor overlaps the CPU update of another, and everything
//     overlaps GPU backward propagation (Fig. 3b).
//
// The same schedule semantics drive both the discrete-event simulator (this
// package) and the real engine's goroutine pipeline (package engine).
package agoffload

import (
	"fmt"

	"ratel/internal/sim"
	"ratel/internal/units"
)

// Mode selects the gradient-offloading schedule.
type Mode int

// Scheduling modes, in increasing order of overlap. Readiness is the
// simulator counterpart of the engine's optimizer state pipeline: it issues
// each chunk's state read at gradient arrival, depth-bounded by the
// prefetch window (reads no longer wait their turn in the update chain).
const (
	Serialized Mode = iota
	Naive
	Optimized
	Readiness
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Serialized:
		return "serialized"
	case Naive:
		return "naive"
	case Optimized:
		return "optimized"
	case Readiness:
		return "readiness"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Chunk is the optimizer work for one gradient tensor (typically one
// transformer block): its parameter count determines the CPU update cost
// and, unless ReadBytes and WriteBytes say otherwise, the model-state bytes
// its handler streams as the paper's Eqs. 1–5 count them (12 bytes/param
// read: P32+OS32; 14 bytes/param written: P32+OS32+P16).
type Chunk struct {
	Label string
	// Params is the chunk's parameter count.
	Params int64
	// ArrivalDep is the schedule task ID whose completion delivers the
	// chunk's gradient to main memory (the backward G2M transfer), or -1 if
	// the gradient is already resident.
	ArrivalDep int
	// ReadBytes and WriteBytes, when set, are the state bytes the handler
	// reads and writes — what a measured engine moves (calib) rather than
	// the paper's per-parameter counts.
	ReadBytes, WriteBytes units.Bytes
}

// StateReadBytes is the model-state bytes the handler reads from SSD.
func (c Chunk) StateReadBytes() units.Bytes {
	if c.ReadBytes > 0 {
		return c.ReadBytes
	}
	return units.Bytes(12 * c.Params)
}

// StateWriteBytes is the updated-state bytes the handler writes back.
func (c Chunk) StateWriteBytes() units.Bytes {
	if c.WriteBytes > 0 {
		return c.WriteBytes
	}
	return units.Bytes(14 * c.Params)
}

// Rates carries the resource speeds the handlers run at.
type Rates struct {
	// BWS2M and BWM2S are the aggregate SSD read/write bandwidths. Zero
	// disables state streaming (states held in main memory, e.g.
	// ZeRO-Offload) — handlers then consist only of the CPU update.
	BWS2M, BWM2S units.BytesPerSecond
	// AdamParamsPerSec is the CPU optimizer throughput.
	AdamParamsPerSec float64
}

// Options tunes the optimizer schedule. Zero values take the engine's
// defaults.
type Options struct {
	// Depth bounds the readiness prefetch window: at most Depth state reads
	// may run ahead of the update chain (0 = 2, the engine's default
	// pipeline depth).
	Depth int
	// Duplex routes state reads onto sim.SSDRead and write-backs onto
	// sim.SSDWrite instead of the shared simplex sim.SSDBus — the
	// simulator counterpart of the NVMe transfer scheduler's per-device
	// duplex lanes. BWS2M/BWM2S then throttle each direction
	// independently, so opt-reads never queue behind write-backs.
	Duplex bool
}

// ssdResources returns the (read, write) resources the options select.
func (o Options) ssdResources() (sim.ResourceID, sim.ResourceID) {
	if o.Duplex {
		return sim.SSDRead, sim.SSDWrite
	}
	return sim.SSDBus, sim.SSDBus
}

// Schedule appends the optimizer tasks for all chunks to a schedule.
// Task IDs are assigned from nextID upward; it returns the tasks, the next
// free ID, and the IDs of the final write-backs (the iteration's optimizer
// completion set). Readiness runs with default Options; use ScheduleWith
// to tune it.
func Schedule(mode Mode, chunks []Chunk, nextID int, r Rates) (tasks []sim.Task, next int, finals []int, err error) {
	return ScheduleWith(mode, chunks, nextID, r, Options{})
}

// ScheduleWith is Schedule with scheduling options.
func ScheduleWith(mode Mode, chunks []Chunk, nextID int, r Rates, o Options) (tasks []sim.Task, next int, finals []int, err error) {
	if r.AdamParamsPerSec <= 0 {
		return nil, 0, nil, fmt.Errorf("agoffload: non-positive Adam rate %v", r.AdamParamsPerSec)
	}
	depth := o.Depth
	if depth <= 0 {
		depth = 2
	}
	ssdRead, ssdWrite := o.ssdResources()
	id := nextID
	alloc := func() int { id++; return id - 1 }

	streaming := r.BWS2M > 0 && r.BWM2S > 0

	// In Serialized mode every handler waits for all gradients: the
	// optimizer is a stage of its own.
	var allArrivals []int
	if mode == Serialized {
		for _, c := range chunks {
			if c.ArrivalDep >= 0 {
				allArrivals = append(allArrivals, c.ArrivalDep)
			}
		}
	}

	prevWrite := -1                           // previous chunk's write-back (Naive chain)
	prevCompute := -1                         // previous chunk's CPU update
	computeIDs := make([]int, 0, len(chunks)) // per-chunk updates (Readiness depth bound)
	for i, c := range chunks {
		if c.Params <= 0 {
			return nil, 0, nil, fmt.Errorf("agoffload: chunk %d (%s) has %d params", i, c.Label, c.Params)
		}
		deps := func(extra ...int) []int {
			var d []int
			switch mode {
			case Serialized:
				d = append(d, allArrivals...)
			default:
				if c.ArrivalDep >= 0 {
					d = append(d, c.ArrivalDep)
				}
			}
			for _, e := range extra {
				if e >= 0 {
					d = append(d, e)
				}
			}
			return d
		}

		computeDeps := []int{}
		var readID = -1
		if streaming {
			readDeps := deps()
			switch mode {
			case Naive:
				// Fig. 3a: the next tensor's SSD->Main waits for the
				// previous tensor's Main->SSD.
				readDeps = deps(prevWrite)
			case Readiness:
				// Depth-bounded prefetch: read i reuses the buffer slot
				// freed when update i-depth consumed its state.
				if i >= depth {
					readDeps = deps(computeIDs[i-depth])
				}
			}
			readID = alloc()
			tasks = append(tasks, sim.Task{
				ID:       readID,
				Label:    c.Label + "/opt-read",
				Resource: ssdRead,
				Duration: units.TransferTime(c.StateReadBytes(), r.BWS2M),
				Deps:     readDeps,
			})
			computeDeps = append(computeDeps, readID)
		} else {
			computeDeps = deps()
		}
		// CPU updates run in arrival order: one optimizer thread pool.
		if prevCompute >= 0 {
			computeDeps = append(computeDeps, prevCompute)
		}
		computeID := alloc()
		tasks = append(tasks, sim.Task{
			ID:       computeID,
			Label:    c.Label + "/opt-adam",
			Resource: sim.CPUAdam,
			Duration: units.Seconds(float64(c.Params) / r.AdamParamsPerSec),
			Deps:     computeDeps,
		})
		prevCompute = computeID
		computeIDs = append(computeIDs, computeID)

		if streaming {
			writeID := alloc()
			tasks = append(tasks, sim.Task{
				ID:       writeID,
				Label:    c.Label + "/opt-write",
				Resource: ssdWrite,
				Duration: units.TransferTime(c.StateWriteBytes(), r.BWM2S),
				Deps:     []int{computeID},
			})
			prevWrite = writeID
			finals = append(finals, writeID)
		} else {
			finals = append(finals, computeID)
		}
	}
	return tasks, id, finals, nil
}

// ChunksForBlocks builds one chunk per (label, params) pair with the given
// arrival dependencies; arrivals[i] < 0 means the gradient is resident.
func ChunksForBlocks(labels []string, params []int64, arrivals []int) ([]Chunk, error) {
	if len(labels) != len(params) || len(labels) != len(arrivals) {
		return nil, fmt.Errorf("agoffload: mismatched chunk inputs (%d labels, %d params, %d arrivals)",
			len(labels), len(params), len(arrivals))
	}
	chunks := make([]Chunk, len(labels))
	for i := range labels {
		chunks[i] = Chunk{Label: labels[i], Params: params[i], ArrivalDep: arrivals[i]}
	}
	return chunks, nil
}
