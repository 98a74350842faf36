package opt

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"ratel/internal/nn"
	"ratel/internal/tensor"
)

// TestEscapeTableRefused: a Δ-form piece whose escape count is above the
// table's capacity, or whose escape indices leave the piece or do not rise,
// is refused by an update — through UpdateGroup and through the pipeline —
// and by the checkpoint's gather, before anything is decoded: the working
// weights and the stored object stay as they were.
func TestEscapeTableRefused(t *testing.T) {
	const n = 1000
	cases := map[string]func(table []byte){
		"count over capacity": func(table []byte) { binary.LittleEndian.PutUint32(table, uint32(escCap(n)+1)) },
		"index out of range": func(table []byte) {
			binary.LittleEndian.PutUint32(table, 1)
			binary.LittleEndian.PutUint32(table[4:], n)
		},
		"indices not rising": func(table []byte) {
			binary.LittleEndian.PutUint32(table, 2)
			binary.LittleEndian.PutUint32(table[4:], 5)
			binary.LittleEndian.PutUint32(table[12:], 5)
		},
	}
	for name, corrupt := range cases {
		for _, path := range []string{"UpdateGroup", "pipeline", "WriteGroupTo"} {
			store := MemStore{}
			o := NewOutOfCoreAdam(store, DefaultAdam(), "e")
			g := pieceGroups(3, n)[0]
			if err := o.InitGroup(g); err != nil {
				t.Fatal(err)
			}
			key := o.stateKey(g.Name)
			if len(store[key]) != StateBytes(n, false) {
				t.Fatalf("the piece is %d bytes, not in Δ form", len(store[key]))
			}
			corrupt(store[key][10*n:])
			before, w := append([]byte(nil), store[key]...), append([]float32(nil), g.Params[0].W.Data...)
			setGroupGrads([]nn.ParamGroup{g}, 1, 1)
			o.BeginStep()
			var err error
			switch path {
			case "UpdateGroup":
				err = o.UpdateGroup(g)
			case "pipeline":
				p := NewStatePipeline(o, 1, []nn.ParamGroup{g})
				if err = p.Submit(g); err == nil {
					err = p.Flush()
				}
				p.Close()
			default:
				var rec bytes.Buffer
				if _, err = o.WriteGroupTo(&rec, g); rec.Len() != 0 {
					t.Fatalf("%s: WriteGroupTo wrote %d bytes of a refused piece", name, rec.Len())
				}
			}
			if err == nil || !strings.Contains(err.Error(), key) {
				t.Fatalf("%s via %s: err = %v, want a refusal naming %s", name, path, err, key)
			}
			if !bytes.Equal(store[key], before) || !floatsBitEqual(g.Params[0].W.Data, w) {
				t.Fatalf("%s via %s: the refused piece was decoded: the store or the weights changed", name, path)
			}
		}
	}
}

// floatsBitEqual is bit equality of two slices.
func floatsBitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFullFormFallback trains a group of two pieces whose first is
// zero-initialized at a learning rate of 1e-6, so that its masters sit far
// below fp16's normal range where almost none is within 16 bits of its P16:
// that piece's escapes overflow its table and it is stored in full form while
// the second, randomly initialized, stays in Δ form; at 1e-3 the masters
// leave that range and the first piece returns to Δ form. Through
// UpdateGroup and through the pipeline, every step's decoded state and
// working weights are bit-identical to in-memory AdamStep's, and a
// checkpoint of the mixed forms restores into a fresh optimizer that
// continues identically.
func TestFullFormFallback(t *testing.T) {
	const P = adamChunkGrain
	build := func() nn.ParamGroup {
		g := pieceGroups(11, P+P/2)[0]
		g.Params[0].W.Zero() // the first tensor is params [0,5000): inside the first piece
		clear(g.Params[1].W.Data[:P-5000])
		return g
	}
	gUpd, gPipe, gRef := build(), build(), build()
	cfg := DefaultAdam()
	cfg.LR = 1e-6
	oUpd, oPipe := windowed(t, MemStore{}, cfg, 2, []nn.ParamGroup{gUpd}), windowed(t, MemStore{}, cfg, 2, []nn.ParamGroup{gPipe})
	p := NewStatePipeline(oPipe, 2, []nn.ParamGroup{gPipe})
	defer p.Close()
	ref := struct{ p, m, v []float32 }{make([]float32, 0, P+P/2), make([]float32, P+P/2), make([]float32, P+P/2)}
	for _, q := range gRef.Params {
		ref.p = append(ref.p, q.W.Data...)
	}
	var ckpt bytes.Buffer
	for step := 1; step <= 6; step++ {
		if step == 4 {
			cfg.LR = 1e-3
			oUpd.SetLR(cfg.LR)
			oPipe.SetLR(cfg.LR)
		}
		for _, g := range []nn.ParamGroup{gUpd, gPipe, gRef} {
			setGroupGrads([]nn.ParamGroup{g}, int64(step), 1)
		}
		grad := make([]float32, 0, len(ref.p))
		for _, q := range gRef.Params {
			for _, gv := range q.G.Data {
				grad = append(grad, tensor.RoundFP16(gv))
			}
		}
		if err := AdamStep(cfg, step, ref.p, ref.m, ref.v, grad); err != nil {
			t.Fatal(err)
		}
		oUpd.BeginStep()
		oPipe.BeginStep()
		if err := oUpd.UpdateGroup(gUpd); err != nil {
			t.Fatal(err)
		}
		if err := p.Submit(gPipe); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		wantFull := step < 4
		for path, o := range map[string]*OutOfCoreAdam{"UpdateGroup": oUpd, "pipeline": oPipe} {
			g := map[string]nn.ParamGroup{"UpdateGroup": gUpd, "pipeline": gPipe}[path]
			if sizes := o.StoredBytes(g.Name); (sizes[0] == StateBytes(P, true)) != wantFull || sizes[1] != StateBytes(P/2, false) {
				t.Fatalf("step %d %s: pieces stored as %v B, want the first full %v and the second in Δ form", step, path, sizes, wantFull)
			}
			if !bytes.Equal(decodedState(t, o, g), encodeState(ref.p, ref.m, ref.v)) {
				t.Fatalf("step %d %s: state differs from AdamStep's", step, path)
			}
			off := 0
			for _, q := range g.Params {
				for j, w := range q.W.Data {
					if math.Float32bits(w) != math.Float32bits(tensor.RoundFP16(ref.p[off+j])) {
						t.Fatalf("step %d %s: installed weight %d differs", step, path, off+j)
					}
				}
				off += len(q.W.Data)
			}
		}
		if step == 3 {
			if _, err := oPipe.WriteGroupTo(&ckpt, gPipe); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The mixed-form checkpoint, restored, continues as the run that saved it
	// does, replayed here from the start.
	gRes, gTwin := build(), build()
	cfg.LR = 1e-6
	oRes, oTwin := windowed(t, MemStore{}, cfg, 2, []nn.ParamGroup{gRes}), windowed(t, MemStore{}, cfg, 2, []nn.ParamGroup{gTwin})
	if ok, err := oRes.ImportWire(gRes, &ckpt); err != nil || !ok {
		t.Fatalf("ImportWire = %v, %v", ok, err)
	}
	if sizes := oRes.StoredBytes(gRes.Name); sizes[0] != StateBytes(P, true) || sizes[1] != StateBytes(P/2, false) {
		t.Fatalf("restored pieces stored as %v B, want the first full and the second in Δ form", sizes)
	}
	if err := oRes.SetStep(3); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 4; step++ {
		if step == 4 {
			oTwin.SetLR(1e-3)
			oRes.SetLR(1e-3)
		}
		setGroupGrads([]nn.ParamGroup{gTwin}, int64(step), 1)
		setGroupGrads([]nn.ParamGroup{gRes}, int64(step), 1)
		oTwin.BeginStep()
		if err := oTwin.UpdateGroup(gTwin); err != nil {
			t.Fatal(err)
		}
	}
	oRes.BeginStep()
	if err := oRes.UpdateGroup(gRes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decodedState(t, oRes, gRes), decodedState(t, oTwin, gTwin)) || !floatsBitEqual(gRes.Params[0].W.Data, gTwin.Params[0].W.Data) {
		t.Fatal("the restored run differs a step after the restore")
	}
	if got := oRes.StoredBytes(gRes.Name)[0]; got != StateBytes(P, false) {
		t.Fatalf("the first piece is %d B a step after the restore, want the Δ form's %d", got, StateBytes(P, false))
	}
}
