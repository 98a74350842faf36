package engine

import (
	"encoding/gob"
	"fmt"
	"io"

	"ratel/internal/opt"
)

// checkpoint is the serialized fine-tuning state: the optimizer step and
// every parameter group's fp32 masters and Adam moments. The fp16 working
// copies are rederived on load (P16 = fp16(P32)), so a restored run is
// bit-identical to an uninterrupted one.
type checkpoint struct {
	Version int
	Step    int
	// ModelStep is the forward-pass counter driving dropout masks.
	ModelStep uint64
	Groups    map[string]opt.GroupState
}

const checkpointVersion = 1

// SaveCheckpoint writes the engine's full training state to w. It joins the
// trailing write-back first and, if that or an earlier update failed, writes
// nothing and returns optErr: a checkpoint never holds torn state. A
// step-goroutine call.
func (e *Engine) SaveCheckpoint(w io.Writer) error {
	if e.joinWriteBack(); e.optErr != nil {
		return e.optErr
	}
	ck := checkpoint{
		Version:   checkpointVersion,
		Step:      e.optimizer.Step(),
		ModelStep: e.model.Step(),
		Groups:    make(map[string]opt.GroupState),
	}
	for _, g := range e.model.ParamGroups() {
		st, err := e.optimizer.ExportGroup(g.Name, g.NumParams())
		if err != nil {
			return fmt.Errorf("engine: checkpoint %s: %w", g.Name, err)
		}
		ck.Groups[g.Name] = st
	}
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return fmt.Errorf("engine: encode checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint restores training state saved by SaveCheckpoint into this
// engine, which must have the same model configuration. The checkpoint is
// validated whole before the first group is written, so a bad one leaves the
// engine as it was; a device failure after that leaves state that matches no
// step and latches optErr until a restore completes. It joins the trailing
// write-back first, so none lands on top of the restored state. A
// step-goroutine call.
func (e *Engine) LoadCheckpoint(r io.Reader) error {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("engine: decode checkpoint: %w", err)
	}
	if ck.Version != checkpointVersion {
		return fmt.Errorf("engine: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	}
	groups := e.model.ParamGroups()
	if len(ck.Groups) != len(groups) {
		return fmt.Errorf("engine: checkpoint has %d groups, model has %d", len(ck.Groups), len(groups))
	}
	for _, g := range groups {
		st, ok := ck.Groups[g.Name]
		if n := g.NumParams(); !ok || len(st.P32) != n || len(st.M) != n || len(st.V) != n {
			return fmt.Errorf("engine: checkpoint group %s missing or not of %d parameters", g.Name, n)
		}
	}
	e.joinWriteBack()
	for _, g := range groups {
		if err := e.optimizer.ImportGroup(g, ck.Groups[g.Name]); err != nil {
			return e.optFailed(fmt.Errorf("engine: restore %s: %w", g.Name, err))
		}
	}
	if err := e.optimizer.SetStep(ck.Step); err != nil {
		return e.optFailed(err)
	}
	e.model.SetStep(ck.ModelStep)
	e.prevGrads = nil
	e.optErr = nil // every group's state was just rewritten whole
	return nil
}
