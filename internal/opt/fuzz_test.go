package opt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"ratel/internal/nn"
	"ratel/internal/tensor"
)

// FuzzStatePiece: arbitrary bytes stored as a piece under any form and any
// table counts the piece can record — each count taken modulo one more than
// the most its plane's table can hold while compact is smaller than raw, 0
// for a raw plane — cut or padded to that size, are either decoded or
// refused with an error naming the piece, by the checkpoint's gather (State)
// and by an update (UpdateGroup), and never make either panic or read past
// the object: each runs twice, over scratch whose bytes past the object are
// two different poisons, and must come to the same outcome, state and
// working weights. A piece is decoded only if every table's header counts
// what the piece records.
func FuzzStatePiece(f *testing.F) {
	const n = 200
	build := func() (*OutOfCoreAdam, MemStore, nn.ParamGroup) {
		rng := rand.New(rand.NewSource(1))
		w, gr := tensor.New(n), tensor.New(n)
		w.RandInit(rng, 0.5)
		gr.RandInit(rng, 0.01)
		g := nn.ParamGroup{Name: "g", Params: []nn.Param{{Name: "g.w", W: w, G: gr}}}
		store := MemStore{}
		o := NewOutOfCoreAdam(store, DefaultAdam(), "f")
		if err := o.InitGroup(g); err != nil {
			f.Fatal(err)
		}
		return o, store, g
	}
	// most is the largest count plane p's table can hold in a piece of n.
	var most [3]int
	for p := range most {
		for compact(n, p, most[p]+1) {
			most[p]++
		}
	}
	seed := func(o *OutOfCoreAdam, g nn.ParamGroup, store MemStore) {
		pc := o.cuts[g.Name][0]
		f.Add(uint8(pc.form), uint16(pc.esc[0]), uint16(pc.esc[1]), uint16(pc.esc[2]), append([]byte(nil), store[pc.key]...))
	}
	o, store, g := build()
	seed(o, g, store)
	o.BeginStep()
	if err := o.UpdateGroup(g); err != nil {
		f.Fatal(err)
	}
	seed(o, g, store)
	f.Add(uint8(Full), uint16(0), uint16(0), uint16(0), bytes.Repeat([]byte{0xff}, StateBytes(n, Full)))
	f.Add(uint8(WideV), uint16(3), uint16(1), uint16(0), bytes.Repeat([]byte{0x3c}, StateBytes(n, WideV)+32))
	f.Add(uint8(0), uint16(2), uint16(0), uint16(1), append(binary.LittleEndian.AppendUint32(make([]byte, StateBytes(n, 0)-20), 2), make([]byte, 40)...))
	f.Fuzz(func(t *testing.T, form uint8, eD, eM, eV uint16, data []byte) {
		var outcome [2]string
		for run, poison := range []byte{0x00, 0xa5} {
			o, store, g := build()
			pc := o.cuts[g.Name][0]
			pc.form = Form(form) & Full
			for p, e := range [3]uint16{eD, eM, eV} {
				pc.esc[p] = 0
				if pc.form&(FullP<<p) == 0 {
					pc.esc[p] = int(e) % (most[p] + 1)
				}
			}
			obj := make([]byte, pc.stored())
			copy(obj, data)
			store[pc.key] = obj
			counted := true
			for p, at := range layout(n, pc.form, pc.esc).tab {
				if pc.form&(FullP<<p) == 0 && int(binary.LittleEndian.Uint32(obj[at:])) != pc.esc[p] {
					counted = false
				}
			}
			o.scr.wire = bytes.Repeat([]byte{poison}, StateBytes(n, Full))
			var got bytes.Buffer
			p32, m, v, err := o.State(g)
			if err == nil && !counted {
				t.Fatalf("form %03b, counts %v: a table whose header counts other than the piece's was decoded", pc.form, pc.esc)
			}
			if err == nil {
				got.Write(encodeState(p32, m, v))
				for i := range o.scr.wire {
					o.scr.wire[i] = poison
				}
				o.BeginStep()
				err = o.UpdateGroup(g)
			}
			if err != nil && !strings.Contains(err.Error(), pc.key) {
				t.Fatalf("form %03b, counts %v: %v, want a refusal naming %s", pc.form, pc.esc, err, pc.key)
			}
			if err == nil {
				got.Write(store[pc.key])
				got.Write(encodeState(g.Params[0].W.Data, nil, nil))
			} else {
				got.WriteString(err.Error())
			}
			outcome[run] = got.String()
		}
		if outcome[0] != outcome[1] {
			t.Fatalf("form %03b, counts %d/%d/%d: the outcome depends on the bytes past the object", form&uint8(Full), eD, eM, eV)
		}
	})
}
