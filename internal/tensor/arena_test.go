package tensor

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// poison fills everything a.New may hand out next with NaN.
func poison(a *Arena) {
	free := a.Free()
	for i := range free {
		free[i] = float32(math.NaN())
	}
}

// TestArenaNilIsTheHeap: a nil arena allocates what New does, and its
// Release is a no-op.
func TestArenaNilIsTheHeap(t *testing.T) {
	var a *Arena
	x := a.New(3, 5)
	if len(x.Shape) != 2 || x.Shape[0] != 3 || x.Shape[1] != 5 || len(x.Data) != 15 {
		t.Fatalf("nil arena made %v with %d values", x.Shape, len(x.Data))
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("heap tensor not zeroed")
		}
	}
	x.Data[0] = 7
	if c := a.Clone(x); c == x || &c.Data[0] == &x.Data[0] || c.Data[0] != 7 {
		t.Fatal("Clone on a nil arena did not copy")
	}
	a.Release()
}

// TestArenaGrowsAtResetOnly: the first pass over an empty arena is served by
// the heap, zeroed; Reset sizes the buffer by what that pass asked for, and
// from then on the same pass gets line-aligned, non-overlapping, DIRTY memory
// inside it, with the same headers after every Release. A bigger pass
// overflows to the heap again without disturbing the tensors already handed
// out, and grows the buffer only at the next Reset.
func TestArenaGrowsAtResetOnly(t *testing.T) {
	var a Arena
	shapes := [][]int{{3, 5}, {1}, {4, 16}, {7}}
	pass := func() []*Tensor {
		var ts []*Tensor
		for _, s := range shapes {
			ts = append(ts, a.New(s...))
		}
		return ts
	}
	for _, x := range pass() {
		for _, v := range x.Data {
			if v != 0 {
				t.Fatal("heap-served tensor not zeroed")
			}
		}
	}
	want := 4 * (16 + 16 + 64 + 16)
	if a.Cap() != 0 || a.Peak() != want {
		t.Fatalf("after the first pass: cap %d, peak %d, want 0 and %d", a.Cap(), a.Peak(), want)
	}
	a.Reset()
	if a.Cap() != want || a.Peak() != 0 {
		t.Fatalf("after Reset: cap %d, peak %d, want %d and 0", a.Cap(), a.Peak(), want)
	}
	poison(&a)
	first := pass()
	var prevEnd uintptr
	for i, x := range first {
		p := uintptr(unsafe.Pointer(&x.Data[0]))
		if p%64 != 0 {
			t.Errorf("tensor %d starts at %#x, not on a cache line", i, p)
		}
		if p < prevEnd {
			t.Errorf("tensor %d overlaps its predecessor", i)
		}
		prevEnd = p + uintptr(4*len(x.Data))
		if cap(x.Data) != len(x.Data) {
			t.Errorf("tensor %d can be appended into its neighbour: cap %d, len %d", i, cap(x.Data), len(x.Data))
		}
		for _, v := range x.Data {
			if v == v {
				t.Fatalf("tensor %d: arena memory was cleaned behind the caller's back", i)
			}
		}
		if len(x.Shape) != len(shapes[i]) || Numel(x.Shape...) != Numel(shapes[i]...) {
			t.Errorf("tensor %d has shape %v, want %v", i, x.Shape, shapes[i])
		}
	}
	if len(a.Free()) != 0 || a.Peak() != a.Cap() {
		t.Fatalf("a full arena reports %d floats free, peak %d of cap %d", len(a.Free()), a.Peak(), a.Cap())
	}
	a.Release()
	for i, x := range pass() {
		if x != first[i] || &x.Data[0] != &first[i].Data[0] {
			t.Fatalf("tensor %d moved after Release: the arena allocated", i)
		}
	}
	over := a.New(200) // does not fit: the heap's, zeroed, and counted
	if over.Data[0] != 0 || a.Peak() <= a.Cap() {
		t.Fatalf("overflow: value %v, peak %d, cap %d", over.Data[0], a.Peak(), a.Cap())
	}
	a.Release()
	if a.Cap() != want {
		t.Fatal("Release grew the buffer")
	}
	a.Reset()
	if a.Cap() != want+4*208 {
		t.Fatalf("Reset after an overflow: cap %d, want %d", a.Cap(), want+4*208)
	}
}

// TestArenaSteadyStateAllocs: once sized, an arena hands out tensors —
// headers, shapes and all — without allocating.
func TestArenaSteadyStateAllocs(t *testing.T) {
	var a Arena
	src := New(8, 8)
	pass := func() {
		a.New(8, 8)
		a.New(3)
		a.Clone(src)
		a.Release()
	}
	pass()
	a.Reset()
	pass()
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Fatalf("a sized arena allocates %v times per pass", allocs)
	}
}

// TestArenaResultsBitIdenticalToHeap: every kernel that makes its result in
// an arena overwrites all of it — from NaN-filled arena memory the three
// matmuls and the two GELUs return the bits they return from the heap.
func TestArenaResultsBitIdenticalToHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m, k, n = 19, 70, 37 // ragged against every tile
	a, b, bt, at := New(m, k), New(k, n), New(n, k), New(k, m)
	for _, x := range []*Tensor{a, b, bt, at} {
		x.RandInit(rng, 1)
		x.RoundFP16InPlace()
	}
	kernels := func(ar *Arena) []*Tensor {
		mm, err1 := MatMul(ar, a, b)
		mt, err2 := MatMulT(ar, a, bt)
		tm, err3 := TMatMul(ar, at, b)
		gb, err4 := GELUBackward(ar, a, a)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			t.Fatal(err1, err2, err3, err4)
		}
		return []*Tensor{mm, mt, tm, GELU(ar, a), gb}
	}
	want := kernels(nil)
	var ar Arena
	kernels(&ar)
	ar.Reset()
	poison(&ar)
	got := kernels(&ar)
	if ar.Peak() != ar.Cap() {
		t.Fatalf("the second pass was not served by the arena: peak %d, cap %d", ar.Peak(), ar.Cap())
	}
	for i := range want {
		for j := range want[i].Data {
			if math.Float32bits(got[i].Data[j]) != math.Float32bits(want[i].Data[j]) {
				t.Fatalf("kernel %d element %d: %v from the arena, %v from the heap", i, j, got[i].Data[j], want[i].Data[j])
			}
		}
	}
}
