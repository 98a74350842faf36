// Asynchronous optimizer scheduling on top of the state pipeline
// (ZenFlow-style): unimportant groups' updates are staged (gradient
// snapshot + captured step/hyperparameters) and ride the same read-ahead →
// Adam → write-behind stages behind the in-step groups; the new fp16
// working weights land in a staging buffer and are installed on the step
// goroutine at the engine's bounded-staleness barrier, never concurrently
// with compute.
package opt

import (
	"fmt"

	"ratel/internal/nn"
)

// ScheduleMode selects how the engine schedules optimizer work relative to
// the training step.
type ScheduleMode int

// Optimizer scheduling modes.
const (
	// ScheduleStreaming is the default: every group's update streams through
	// the state pipeline and is joined before the step returns, so training
	// is bit-identical to a serialized optimizer stage.
	ScheduleStreaming ScheduleMode = iota
	// ScheduleAsync partitions groups by gradient-norm importance: the
	// important partition updates in-step, the tail drains behind it across
	// steps under a bounded-staleness barrier. Changes the training
	// trajectory (boundedly); validated by a convergence test, not
	// bit-equality.
	ScheduleAsync
)

// String names the mode.
func (m ScheduleMode) String() string {
	switch m {
	case ScheduleStreaming:
		return "streaming"
	case ScheduleAsync:
		return "async"
	}
	return fmt.Sprintf("ScheduleMode(%d)", int(m))
}

// ParseScheduleMode parses a -opt-schedule flag value.
func ParseScheduleMode(s string) (ScheduleMode, error) {
	switch s {
	case "streaming":
		return ScheduleStreaming, nil
	case "async":
		return ScheduleAsync, nil
	}
	return 0, fmt.Errorf("opt: unknown schedule mode %q (want streaming or async)", s)
}

// DeferredUpdate is one group's staged asynchronous update: the gradient
// snapshot and captured optimizer step/hyperparameters at defer time, plus
// the fp16 staging the pipeline's Adam stage writes its result into. One
// per group, preallocated and reused; the pending flag (owned by the step
// goroutine) serializes reuse.
type DeferredUpdate struct {
	job groupJob
}

// NewDeferred preallocates the deferred-update slot for one parameter
// group: staging sized to the group, the result channel, and the
// precomputed store key and span label, so deferring never allocates or
// touches shared maps.
func (o *OutOfCoreAdam) NewDeferred(g nn.ParamGroup) *DeferredUpdate {
	d := &DeferredUpdate{job: o.newJob(g, g.Name+"/opt-adam-async")}
	d.job.grads = make([]float32, d.job.n)
	d.job.p16 = make([]float32, d.job.n)
	return d
}

// Pending reports whether an apply of this update is in flight.
func (d *DeferredUpdate) Pending() bool { return d.job.pending }

// Step is the optimizer step the staged gradient belongs to; the weights'
// staleness at step t is t - Step().
func (d *DeferredUpdate) Step() int { return d.job.step }

// DeferredBytes is the optimizer traffic one deferred update moves off the
// step's critical path: the 12 B/param state read, 14 B/param state+P16
// write-back, and the 2 B/param fp16 gradient snapshot.
func (d *DeferredUpdate) DeferredBytes() int64 { return 28 * int64(d.job.n) }

// Wait blocks until the apply finishes — write included — installs the
// fresh fp16 working weights into the group's tensors, and clears the
// pending mark. A failed apply installs nothing. Must run on the step
// goroutine (the installed weights are read by compute).
func (d *DeferredUpdate) Wait() error {
	if !d.job.pending {
		return nil
	}
	err := <-d.job.done
	d.job.pending = false
	if err != nil {
		return err
	}
	off := 0
	for _, p := range d.job.g.Params {
		off += copy(p.W.Data, d.job.p16[off:off+p.W.Numel()])
	}
	return nil
}

// StageDeferred captures everything a later apply of g's update needs: the
// fp16-rounded, unscaled and clipped gradient, the optimizer step the
// gradient belongs to, and the hyperparameters at stage time (so the
// learning-rate schedule applies to the step that produced the gradient,
// not the step the apply lands in). The G16 staging is the in-step path's
// own. d must be idle; hand it to StatePipeline.SubmitDeferred next.
func (o *OutOfCoreAdam) StageDeferred(d *DeferredUpdate, g nn.ParamGroup) error {
	if o.step < 1 {
		return fmt.Errorf("opt: StageDeferred(%s) before BeginStep", g.Name)
	}
	if d.job.pending {
		return fmt.Errorf("opt: StageDeferred(%s): previous deferred update still in flight", g.Name)
	}
	if err := o.stageGrads(d.job.grads, g); err != nil {
		return err
	}
	d.job.step, d.job.cfg = o.step, o.cfg
	d.job.pending = true
	return nil
}
