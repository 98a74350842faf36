package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/nn"
	"ratel/internal/tensor"
)

// FuzzLoadCheckpoint feeds LoadCheckpoint streams of any length and content —
// a truncated file, a flipped bit, another model's or another format's
// checkpoint — on one engine reused across inputs, and holds it to its
// contract: no input panics; an accepted one saves back to the bytes it read
// (the stream may go on past the checkpoint); a refused one either left the
// engine bit-identical to its twin (refused before the first write) or
// latched it, so every TrainStep and SaveCheckpoint refuses until the good
// checkpoint is loaded, after which it trains exactly as the twin does.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := Config{GradMode: agoffload.Optimized}
	e, twin := newEngine(f, cfg), newEngine(f, cfg)
	trainK(f, e, 2)
	var buf bytes.Buffer
	if err := e.SaveCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	if err := twin.LoadCheckpoint(bytes.NewReader(good)); err != nil {
		f.Fatal(err)
	}
	want := paramsSnapshot(twin.Model())
	wantLoss := trainFrom(f, twin, 2, 1)[0]
	wantNext := paramsSnapshot(twin.Model())
	tokens, targets := data(e.cfg.Model, 2)

	// The real checkpoint, its truncations at every group boundary, and a gob
	// checkpoint of format 1.
	f.Add(good)
	header, payload := ckptLayout(e)
	f.Add(good[:header])
	for _, at := range payload[1:] {
		f.Add(good[:at])
	}
	gob, err := os.ReadFile("testdata/format1.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gob)

	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		err := e.LoadCheckpoint(r)
		var out bytes.Buffer
		switch {
		case err == nil:
			if err := e.SaveCheckpoint(&out); err != nil || !bytes.Equal(out.Bytes(), in[:len(in)-r.Len()]) {
				t.Fatalf("an accepted checkpoint saves back to other bytes (%v)", err)
			}
		case e.optErr == nil:
			if err := e.SaveCheckpoint(&out); err != nil || !bytes.Equal(out.Bytes(), good) || !floatsEqual(paramsSnapshot(e.Model()), want) {
				t.Fatalf("a checkpoint refused before any write (%v) changed the engine", err)
			}
			return
		default:
			if _, err := e.TrainStep(tokens, targets); err == nil {
				t.Fatal("a latched engine trained")
			}
			if err := e.SaveCheckpoint(&out); err == nil || out.Len() != 0 {
				t.Fatalf("a latched engine saved %d bytes (%v)", out.Len(), err)
			}
		}
		if err := e.LoadCheckpoint(bytes.NewReader(good)); err != nil {
			t.Fatal(err)
		}
		if loss, err := e.TrainStep(tokens, targets); err != nil || loss != wantLoss || !floatsEqual(paramsSnapshot(e.Model()), wantNext) {
			t.Fatalf("after the good checkpoint the engine trains differently from its twin (%v)", err)
		}
		if err := e.LoadCheckpoint(bytes.NewReader(good)); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDecodeTensors feeds blobArena.decode activation blobs of any length and
// content — what a torn write, a short read or a corrupted device would hand
// backward — against a cache shaped in an arena between two guard tensors, as
// reviveCache shapes one between its neighbours in the block scope. A blob of
// any length but the geometry's is refused, and whatever decode does before
// it refuses, it writes nothing outside the cache's own tensors; a blob of the
// right length decodes to exactly the binary16 values its bytes spell, NaNs
// and infinities included, with the input installed by reference.
func FuzzDecodeTensors(f *testing.F) {
	g := geometry{batch: 2, seq: 4, hidden: 8, heads: 2}
	want := g.blobBytes()

	// The corpus of TestDecodedCacheNeverAliasesBlob — a real cache's blob —
	// then the same blob truncated, extended and odd-sized, and the extremes.
	src := newCache(g, nil)
	for i, tt := range cacheTensors(src) {
		for j := range tt.Data {
			tt.Data[j] = tensor.RoundFP16(float32(i+1) * float32(j%7) * 0.25)
		}
	}
	valid := make([]byte, want)
	var ar blobArena
	if err := ar.encode(valid, src); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:want-2])
	f.Add(valid[:want-1])
	f.Add(valid[:want/2+1])
	f.Add(append(append([]byte(nil), valid...), 0, 0))
	f.Add(append(append([]byte(nil), valid...), valid...))
	f.Add([]byte{})
	f.Add([]byte{0xff})

	// One arena for every input: the first shaping is served by the heap and
	// sizes it, every later one lands on the same dirty memory.
	const guard = float32(-12345.5)
	var scope tensor.Arena
	var c nn.BlockCache
	shape := func() (lo, hi *tensor.Tensor) {
		scope.Release()
		lo = scope.New(16)
		g.shapeCache(&c, &scope)
		hi = scope.New(16)
		for i := range lo.Data {
			lo.Data[i], hi.Data[i] = guard, guard
		}
		return lo, hi
	}
	shape()
	scope.Reset()
	input := tensor.New(g.batch*g.seq, g.hidden)

	f.Fuzz(func(t *testing.T, blob []byte) {
		lo, hi := shape()
		if scope.Peak() != scope.Cap() || len(scope.Free()) != 0 {
			t.Fatalf("the cache and its guards are not the whole arena: peak %d, cap %d", scope.Peak(), scope.Cap())
		}
		err := ar.decode(&c, blob, input)
		for i := range lo.Data {
			if lo.Data[i] != guard || hi.Data[i] != guard {
				t.Fatalf("decode of a %d-byte blob wrote outside the cache's tensors (guard word %d)", len(blob), i)
			}
		}
		if len(blob) != want {
			if err == nil {
				t.Fatalf("decode accepted a %d-byte blob for a %d-byte geometry", len(blob), want)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode refused a blob of the right length: %v", err)
		}
		if c.X != input {
			t.Fatal("decode must install the block input by reference")
		}
		off := 0
		for k, tt := range cacheTensors(&c) {
			for j, v := range tt.Data {
				h := tensor.HalfToFloat32(binary.LittleEndian.Uint16(blob[off:]))
				if math.Float32bits(v) != math.Float32bits(h) {
					t.Fatalf("tensor %d[%d] = %v, its bytes spell %v", k, j, v, h)
				}
				off += 2
			}
		}
	})
}
