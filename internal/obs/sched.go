package obs

import "time"

// Per-direction NVMe scheduler telemetry. The array (internal/nvme) runs one
// read and one write lane per device; obs carries one row per direction so
// the flight recorder and the metric exporters can hold scheduler samples
// without importing the storage layer.

// The scheduler telemetry rows, indexing SchedSample and SchedDirNames.
const (
	SchedRead = iota
	SchedWrite
)

// SchedDirNames are the rows' canonical telemetry names.
var SchedDirNames = [...]string{SchedRead: "read", SchedWrite: "write"}

// SchedDelta is one step's scheduler activity in one direction: stride items
// dispatched, their summed queue wait, and the direction's cumulative queue
// depth high-water mark.
type SchedDelta struct {
	Dispatched int64
	Wait       time.Duration
	QueuePeak  int64
}

// SchedSample is a per-direction scheduler snapshot carried on a StepRecord.
type SchedSample [len(SchedDirNames)]SchedDelta

// Active reports whether either direction saw traffic (the zero value means
// the scheduler was idle, and dumps omit the block).
func (s SchedSample) Active() bool { return s != SchedSample{} }
