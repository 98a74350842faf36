package opt

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"ratel/internal/nn"
	"ratel/internal/tensor"
	"ratel/internal/tensor/simd"
)

// TestEscapeTableRefused: a piece one of whose escape tables — Δ's, M's or
// V's — counts more or fewer records than the piece records, or has indices
// that leave the piece or do not rise, or a moment table whose base puts the
// window past the byte, is refused by an update — through UpdateGroup and
// through the pipeline — and by the checkpoint's gather, before anything is
// decoded: the error names the piece, and the working weights and the stored
// object stay as they were. The piece holds records in all three tables:
// every 40th master lies in fp16's subnormal range with no gradient, and
// every 50th gradient is 2^20 times the rest.
func TestEscapeTableRefused(t *testing.T) {
	const n = 1000
	build := func() (*OutOfCoreAdam, MemStore, nn.ParamGroup, *piece) {
		store := MemStore{}
		o := NewOutOfCoreAdam(store, DefaultAdam(), "e")
		g := pieceGroups(3, n)[0]
		w := g.Params[0].W.Data
		for i := 0; i < n; i += 40 {
			w[i] = 1e-6 * float32(1+i%7)
		}
		if err := o.InitGroup(g); err != nil {
			t.Fatal(err)
		}
		setGroupGrads([]nn.ParamGroup{g}, 1, 1)
		for i, gr := range g.Params[0].G.Data {
			switch {
			case i%40 == 0:
				g.Params[0].G.Data[i] = 0
			case i%50 == 1:
				g.Params[0].G.Data[i] = gr * (1 << 20)
			}
		}
		o.BeginStep()
		if err := o.UpdateGroup(g); err != nil {
			t.Fatal(err)
		}
		pc := o.cuts[g.Name][0]
		if pc.form != 0 || pc.esc[0] == 0 || pc.esc[1] == 0 || pc.esc[2] == 0 || len(store[pc.key]) != pc.stored() {
			t.Fatalf("the piece is stored in form %03b with %v escapes in %d bytes: want the compact form with records in every table", pc.form, pc.esc, len(store[pc.key]))
		}
		return o, store, g, pc
	}
	cases := map[string]func(obj, table []byte, plane int) bool{
		"count above the record": func(_, table []byte, _ int) bool {
			binary.LittleEndian.PutUint32(table, binary.LittleEndian.Uint32(table)+1)
			return true
		},
		"count below the record": func(_, table []byte, _ int) bool {
			binary.LittleEndian.PutUint32(table, binary.LittleEndian.Uint32(table)-1)
			return true
		},
		"index out of range": func(_, table []byte, plane int) bool {
			binary.LittleEndian.PutUint32(table[tableHeader[plane]:], n)
			return true
		},
		"indices not rising": func(_, table []byte, plane int) bool {
			recs := table[tableHeader[plane]:]
			copy(recs[simd.EscapeBytes:], recs[:4])
			return true
		},
		"base past the byte": func(_, table []byte, plane int) bool {
			if plane == 0 {
				return false
			}
			binary.LittleEndian.PutUint32(table[4:], [3]uint32{1: 0x7a, 2: 0xf2}[plane])
			return true
		},
	}
	for name, corrupt := range cases {
		for plane := range 3 {
			for _, path := range []string{"UpdateGroup", "pipeline", "WriteGroupTo"} {
				o, store, g, pc := build()
				obj := store[pc.key]
				if !corrupt(obj, obj[layout(n, pc.form, pc.esc).tab[plane]:], plane) {
					continue
				}
				before, w := append([]byte(nil), obj...), append([]float32(nil), g.Params[0].W.Data...)
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
						t.Fatalf("%s of %s: WriteGroupTo wrote %d bytes of a refused piece", name, planeNames[plane], rec.Len())
					}
				}
				if err == nil || !strings.Contains(err.Error(), pc.key) {
					t.Fatalf("%s of %s via %s: err = %v, want a refusal naming %s", name, planeNames[plane], path, err, pc.key)
				}
				if !bytes.Equal(store[pc.key], before) || !floatsBitEqual(g.Params[0].W.Data, w) {
					t.Fatalf("%s of %s via %s: the refused piece was decoded: the store or the weights changed", name, planeNames[plane], path)
				}
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

// TestFullFormFallback drives a group of two pieces through every change of
// form. Its first piece is zero-initialized at a learning rate of 1e-6, so
// that its masters sit far below fp16's normal range where almost none is
// within 13 bits of its P16: that piece's Δ table would make Δ larger than
// P32 and it stores P32 (FullP) while the second, randomly initialized,
// stores Δ; at 1e-3 the masters leave that range and the first piece returns
// to Δ. At step 5 the second piece's M window is moved where its moments are
// not: the walk's M escapes make narrow M larger than raw, and M is written
// again in a window that fits, staying narrow. At step 6 half of that
// piece's gradients jump 2^12-fold, so no window holds both halves of M: M
// alone is stored raw; at step 7 the other half follows and M is narrow
// again. Through UpdateGroup and through the pipeline, every step's decoded
// state and working weights are bit-identical to in-memory AdamStep's, and a
// checkpoint of the mixed forms restores, in the same forms, into a fresh
// optimizer that continues identically.
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
	want := [...][2]Form{1: {FullP, 0}, {FullP, 0}, {FullP, 0}, {0, 0}, {0, 0}, {0, WideM}, {0, 0}, {0, 0}}
	var ckpt bytes.Buffer
	// scale multiplies the gradients of piece 1's params i with i%2 >= odd.
	scale := func(g nn.ParamGroup, odd int, by float32) {
		off := 0
		for _, q := range g.Params {
			for j := range q.G.Data {
				if i := off + j; i >= P && i%2 >= odd {
					q.G.Data[j] *= by
				}
			}
			off += len(q.G.Data)
		}
	}
	for step := 1; step <= 8; step++ {
		if step == 5 { // M's window moved where its values are not: written again in one that fits
			for _, o := range []*OutOfCoreAdam{oUpd, oPipe} {
				o.cuts[gUpd.Name][1].codes[0].Base = 0x79
			}
		}
		if step == 4 {
			cfg.LR = 1e-3
			oUpd.SetLR(cfg.LR)
			oPipe.SetLR(cfg.LR)
		}
		for _, g := range []nn.ParamGroup{gUpd, gPipe, gRef} {
			setGroupGrads([]nn.ParamGroup{g}, int64(step), 1)
			switch step {
			case 6: // half of piece 1's M jumps 2^12-fold: no window holds both halves
				scale(g, 1, 4096)
			case 7: // and the other half follows
				scale(g, 0, 4096)
			}
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
		for path, o := range map[string]*OutOfCoreAdam{"UpdateGroup": oUpd, "pipeline": oPipe} {
			g := map[string]nn.ParamGroup{"UpdateGroup": gUpd, "pipeline": gPipe}[path]
			forms := [2]Form{o.cuts[g.Name][0].form, o.cuts[g.Name][1].form}
			if forms != want[step] {
				t.Fatalf("step %d %s: pieces stored in forms %03b and %03b, want %03b", step, path, forms[0], forms[1], want[step])
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
	if pcs := oRes.cuts[gRes.Name]; pcs[0].form != FullP || pcs[1].form != 0 {
		t.Fatalf("restored pieces stored in forms %03b and %03b, want the first FullP and the second compact", pcs[0].form, pcs[1].form)
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
	if pc := oRes.cuts[gRes.Name][0]; pc.form != 0 || pc.stored() != oRes.StoredBytes(gRes.Name)[0] {
		t.Fatalf("the first piece is stored in form %03b a step after the restore, want the compact one", pc.form)
	}
}
