package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// A checkpoint is the engine's optimizer state, group by group, behind a
// header that says whose it is (format 2, little-endian; DESIGN §14):
//
//	magic "RATELCKP" | format u32 | groups u32 | optimizer step u64 | model step u64
//	per group, the table of contents: params u64 | name length u16 | name
//	CRC-32C of the header so far
//	per group, opt.WriteGroupTo's record: its P32 | M | V object | CRC-32C of it
//
// The record is the decoded state, whatever form the array stores each piece
// in; P16 = fp16(P32) is rederived on load, so a restored run is
// bit-identical.
const ckptMagic, ckptFormat = "RATELCKP", 2

// SaveCheckpoint writes the engine's full training state to w, each group's
// object streamed through the optimizer's wire scratch. It joins the trailing
// write-back first and, if that or an earlier update failed, writes nothing
// and returns optErr: a checkpoint never holds torn state. Nor does it hold
// the gradients a DelayedUpdate engine has yet to apply, so while there are
// any it writes nothing and returns an error: FlushDelayed applies them. A
// save that fails part-way leaves a prefix in w, which LoadCheckpoint
// refuses. A step-goroutine call.
func (e *Engine) SaveCheckpoint(w io.Writer) error {
	if e.joinWriteBack(); e.optErr != nil {
		return e.optErr
	}
	if e.pending {
		return fmt.Errorf("engine: a delayed update holds one step's gradients, which a checkpoint cannot carry; call FlushDelayed before SaveCheckpoint")
	}
	if _, err := w.Write(e.header(e.optimizer.Step(), e.model.Step())); err != nil {
		return fmt.Errorf("engine: write checkpoint: %w", err)
	}
	for _, g := range e.groups {
		if _, err := e.optimizer.WriteGroupTo(w, g); err != nil {
			return fmt.Errorf("engine: checkpoint %s: %w", g.Name, err)
		}
	}
	return nil
}

// header lays out this model's checkpoint header at the given steps in
// e.ckptScr and returns it.
func (e *Engine) header(step int, modelStep uint64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(append(e.ckptScr[:0], ckptMagic...), ckptFormat)
	b = le.AppendUint32(b, uint32(len(e.groups)))
	b = le.AppendUint64(le.AppendUint64(b, uint64(step)), modelStep)
	for _, g := range e.groups {
		b = append(le.AppendUint16(le.AppendUint64(b, uint64(g.NumParams())), uint16(len(g.Name))), g.Name...)
	}
	e.ckptScr = le.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
	return e.ckptScr
}

// LoadCheckpoint restores training state saved by SaveCheckpoint into this
// engine of the same model, reading exactly the checkpoint's bytes from r.
// Another format or model, a corrupt header, or a first group that is short
// or fails its checksum leaves the engine as it was; a failure after the
// first group's write latches optErr until a restore completes. It joins the
// trailing write-back first, so none lands on the restored state. A
// step-goroutine call.
func (e *Engine) LoadCheckpoint(r io.Reader) error {
	// The header is read into the scratch beside the one this model writes,
	// and must be the same bytes once its steps are written into that one.
	le := binary.LittleEndian
	n := len(e.header(0, 0))
	e.ckptScr = slices.Grow(e.ckptScr, n)
	got := e.ckptScr[n : 2*n]
	switch _, err := io.ReadFull(r, got); {
	case err != nil:
		return fmt.Errorf("engine: checkpoint header: %w", err)
	case string(got[:8]) != ckptMagic && bytes.Contains(got, []byte("\ncheckpoint")):
		return fmt.Errorf("engine: checkpoint is format 1 (gob), which is no longer read; this engine reads format %d", ckptFormat)
	case string(got[:8]) != ckptMagic || le.Uint32(got[8:]) != ckptFormat:
		return fmt.Errorf("engine: not a format-%d checkpoint (magic %q, format %d)", ckptFormat, got[:8], le.Uint32(got[8:]))
	}
	step, modelStep := int(le.Uint64(got[16:])), le.Uint64(got[24:])
	if !bytes.Equal(got, e.header(step, modelStep)) || step < 0 {
		return fmt.Errorf("engine: checkpoint header is not this model's (%d groups), or is corrupt", len(e.groups))
	}
	e.joinWriteBack()
	for i, g := range e.groups {
		if stored, err := e.optimizer.ImportWire(g, r); err != nil {
			err = fmt.Errorf("engine: restore %s: %w", g.Name, err)
			if stored || i > 0 {
				return e.optFailed(err)
			}
			return err
		}
	}
	if err := e.optimizer.SetStep(step); err != nil {
		return e.optFailed(err)
	}
	e.model.SetStep(modelStep)
	e.pending = false
	e.optErr = nil // every group's state was just rewritten whole
	return nil
}
