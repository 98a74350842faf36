package tensor

import (
	"bytes"
	"math/rand"
	"testing"
)

// fillDirty poisons a tensor so tests prove Into kernels fully overwrite
// reused destinations.
func fillDirty(t *Tensor) {
	for i := range t.Data {
		t.Data[i] = float32(1e30)
	}
}

func randT(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.RandInit(rng, 0.5)
	return t
}

// TestIntoKernelsMatchAllocating checks that every Into matmul variant
// writes bits identical to its allocating counterpart, even when the
// destination buffer is dirty from a previous use.
func TestIntoKernelsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const m, k, n = 7, 13, 5

	cases := []struct {
		name  string
		a, b  *Tensor
		alloc func(ar *Arena, a, b *Tensor) (*Tensor, error)
		into  func(c, a, b *Tensor) error
	}{
		{"MatMul", randT(rng, m, k), randT(rng, k, n), MatMul, MatMulInto},
		{"MatMulT", randT(rng, m, k), randT(rng, n, k), MatMulT, MatMulTInto},
		{"TMatMul", randT(rng, k, m), randT(rng, k, n), TMatMul, TMatMulInto},
	}
	for _, tc := range cases {
		want, err := tc.alloc(nil, tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := New(m, n)
		fillDirty(got)
		if err := tc.into(got, tc.a, tc.b); err != nil {
			t.Fatalf("%sInto: %v", tc.name, err)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%sInto[%d] = %v, want %v", tc.name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestIntoKernelsRejectBadDst checks shape validation on the caller-owned
// destination.
func TestIntoKernelsRejectBadDst(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a, b := randT(rng, 4, 6), randT(rng, 6, 3)
	for _, bad := range []*Tensor{New(4, 4), New(3, 3), New(12)} {
		if err := MatMulInto(bad, a, b); err == nil {
			t.Fatalf("MatMulInto accepted dst shape %v", bad.Shape)
		}
	}
	bt := randT(rng, 3, 6)
	if err := MatMulTInto(New(4, 4), a, bt); err == nil {
		t.Fatal("MatMulTInto accepted wrong dst shape")
	}
	at := randT(rng, 6, 4)
	if err := TMatMulInto(New(4, 4), at, b); err == nil {
		t.Fatal("TMatMulInto accepted wrong dst shape")
	}
}

// TestCodecIntoMatchesAllocating checks the buffer-reusing fp16/fp32 codecs
// against the allocating ones, including dirty destination buffers.
func TestCodecIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vals := make([]float32, 1000)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}

	want16 := ToFP16Bytes(vals)
	got16 := make([]byte, 2*len(vals))
	for i := range got16 {
		got16[i] = 0xAA
	}
	if err := ToFP16BytesInto(got16, vals); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want16, got16) {
		t.Fatal("ToFP16BytesInto differs from ToFP16Bytes")
	}

	want32 := ToFP32Bytes(vals)
	got32 := make([]byte, 4*len(vals))
	for i := range got32 {
		got32[i] = 0x55
	}
	if err := ToFP32BytesInto(got32, vals); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want32, got32) {
		t.Fatal("ToFP32BytesInto differs from ToFP32Bytes")
	}
}

// TestCodecIntoRejectsBadSizes checks the exact-length contract on
// caller-owned codec buffers.
func TestCodecIntoRejectsBadSizes(t *testing.T) {
	vals := make([]float32, 8)
	if err := ToFP16BytesInto(make([]byte, 15), vals); err == nil {
		t.Fatal("fp16 encode accepted short dst")
	}
	if err := ToFP16BytesInto(make([]byte, 17), vals); err == nil {
		t.Fatal("fp16 encode accepted long dst")
	}
	if err := ToFP32BytesInto(make([]byte, 31), vals); err == nil {
		t.Fatal("fp32 encode accepted short dst")
	}
}

// TestIntoKernelsBitIdenticalAcrossThreads pins determinism of the matmul
// Into variants: results must match the 1-thread run bit-for-bit at higher
// parallelism, with sizes large enough to actually engage the pool.
func TestIntoKernelsBitIdenticalAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const m, k, n = 96, 128, 80
	a, b := randT(rng, m, k), randT(rng, k, n)
	bt := randT(rng, n, k)
	at := randT(rng, k, m)

	old := Parallelism()
	defer SetParallelism(old)

	run := func() (mm, mt, tm *Tensor) {
		mm, mt, tm = New(m, n), New(m, n), New(m, n)
		fillDirty(mm)
		fillDirty(mt)
		fillDirty(tm)
		if err := MatMulInto(mm, a, b); err != nil {
			t.Fatal(err)
		}
		if err := MatMulTInto(mt, a, bt); err != nil {
			t.Fatal(err)
		}
		if err := TMatMulInto(tm, at, b); err != nil {
			t.Fatal(err)
		}
		return mm, mt, tm
	}

	SetParallelism(1)
	mm1, mt1, tm1 := run()
	for _, threads := range []int{2, 4, 8} {
		SetParallelism(threads)
		mm, mt, tm := run()
		for i := range mm1.Data {
			if mm.Data[i] != mm1.Data[i] || mt.Data[i] != mt1.Data[i] || tm.Data[i] != tm1.Data[i] {
				t.Fatalf("threads=%d: Into kernel output differs from serial at %d", threads, i)
			}
		}
	}
}
