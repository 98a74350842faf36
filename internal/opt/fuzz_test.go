package opt

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"ratel/internal/nn"
	"ratel/internal/tensor"
)

// FuzzStatePiece: arbitrary bytes stored as a piece in any form — cut or
// padded to that form's size — are either decoded or refused with an error
// naming the piece, by the checkpoint's gather (State) and by an update
// (UpdateGroup), and never make either panic or read past the object: each
// runs twice, over scratch whose bytes past the object are two different
// poisons, and must come to the same outcome, state and working weights.
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
	o, store, g := build()
	f.Add(uint8(o.cuts[g.Name][0].form), append([]byte(nil), store[o.stateKey(g.Name)]...))
	o.BeginStep()
	if err := o.UpdateGroup(g); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(o.cuts[g.Name][0].form), append([]byte(nil), store[o.stateKey(g.Name)]...))
	f.Add(uint8(Full), bytes.Repeat([]byte{0xff}, StateBytes(n, Full)))
	f.Add(uint8(WideV), bytes.Repeat([]byte{0x3c}, StateBytes(n, WideV)))
	f.Fuzz(func(t *testing.T, form uint8, data []byte) {
		var outcome [2]string
		for run, poison := range []byte{0x00, 0xa5} {
			o, store, g := build()
			pc := o.cuts[g.Name][0]
			pc.form = Form(form) & Full
			obj := make([]byte, pc.stored())
			copy(obj, data)
			store[pc.key] = obj
			o.scr.wire = bytes.Repeat([]byte{poison}, StateBytes(n, Full))
			var got bytes.Buffer
			p32, m, v, err := o.State(g)
			if err == nil {
				got.Write(encodeState(p32, m, v))
				for i := range o.scr.wire {
					o.scr.wire[i] = poison
				}
				o.BeginStep()
				err = o.UpdateGroup(g)
			}
			if err != nil && !strings.Contains(err.Error(), pc.key) {
				t.Fatalf("form %03b: %v, want a refusal naming %s", pc.form, err, pc.key)
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
			t.Fatalf("form %03b: the outcome depends on the bytes past the object", form&uint8(Full))
		}
	})
}
