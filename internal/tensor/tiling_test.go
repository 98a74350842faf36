package tensor

import (
	"math"
	"math/rand"
	"testing"

	"ratel/internal/tensor/simd"
)

// TestMatMulSIMDvsGenericTolerance compares the selected matmul kernels
// against the pinned-generic dispatch: the FMA path may differ in
// rounding but must stay within the documented tolerance. Skipped when
// the vector kernels are not active (then the two paths are identical).
func TestMatMulSIMDvsGenericTolerance(t *testing.T) {
	if !simd.Active() {
		t.Skip("vector kernels not active")
	}
	rng := rand.New(rand.NewSource(5))
	a := randTensor(rng, 65, 130)
	b := randTensor(rng, 130, 67)
	bt := randTensor(rng, 67, 130)

	simdMM, _ := MatMul(nil, a, b)
	simdMMT, _ := MatMulT(nil, a, bt)

	restore := simd.ForceGeneric()
	genMM, _ := MatMul(nil, a, b)
	genMMT, _ := MatMulT(nil, a, bt)
	restore()

	if d := maxRelDiff(t, simdMM, genMM); d > kernelParityTol {
		t.Errorf("MatMul simd-vs-generic rel diff %g", d)
	}
	if d := maxRelDiff(t, simdMMT, genMMT); d > kernelParityTol {
		t.Errorf("MatMulT simd-vs-generic rel diff %g", d)
	}
}

// TestFP16CodecSIMDvsGenericBitEqual pins the codec exactness contract at
// the tensor layer: the dispatch-selected encode/decode/round produce the
// same bytes and bits as the pinned-generic path, for ragged lengths that
// cross the vector/tail seam and for special values.
func TestFP16CodecSIMDvsGenericBitEqual(t *testing.T) {
	if !simd.Active() {
		t.Skip("vector kernels not active")
	}
	rng := rand.New(rand.NewSource(6))
	vals := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), 65504, -65504, 1e-10, 6e-8,
	}
	for len(vals) < 1037 {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	enc := make([]byte, 2*len(vals))
	if err := ToFP16BytesInto(enc, vals); err != nil {
		t.Fatal(err)
	}
	dec := make([]float32, len(vals))
	if err := FromFP16Bytes(enc, dec); err != nil {
		t.Fatal(err)
	}
	rnd := append([]float32(nil), vals...)
	if err := RoundFP16Into(rnd, vals); err != nil {
		t.Fatal(err)
	}

	restore := simd.ForceGeneric()
	defer restore()
	encGen := make([]byte, 2*len(vals))
	if err := ToFP16BytesInto(encGen, vals); err != nil {
		t.Fatal(err)
	}
	decGen := make([]float32, len(vals))
	if err := FromFP16Bytes(encGen, decGen); err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		if enc[i] != encGen[i] {
			t.Fatalf("encode byte %d differs (value bits %#08x)", i, math.Float32bits(vals[i/2]))
		}
	}
	for i := range dec {
		if math.Float32bits(dec[i]) != math.Float32bits(decGen[i]) {
			t.Fatalf("decode value %d differs", i)
		}
		if math.Float32bits(rnd[i]) != math.Float32bits(RoundFP16(vals[i])) {
			t.Fatalf("RoundFP16Into value %d differs from scalar RoundFP16", i)
		}
	}
}
