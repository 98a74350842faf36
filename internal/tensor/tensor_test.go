package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMul(t *testing.T) {
	a, _ := FromData([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, _ := FromData([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("matmul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapesChecked(t *testing.T) {
	a, _ := FromData([]float32{1, 2}, 1, 2)
	b, _ := FromData([]float32{1, 2, 3}, 3, 1)
	if _, err := MatMul(nil, a, b); err == nil {
		t.Error("mismatched inner dims accepted")
	}
	if _, err := MatMul(nil, New(2), b); err == nil {
		t.Error("rank-1 tensor accepted")
	}
}

// TestTransposedVariants: MatMulT(nil, a,b) == a·bᵀ and TMatMul(nil, a,b) == aᵀ·b,
// verified against explicit transposition.
func TestTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(4, 5)
	b := New(3, 5)
	a.RandInit(rng, 1)
	b.RandInit(rng, 1)

	bt := New(5, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			bt.Data[j*3+i] = b.Data[i*5+j]
		}
	}
	want, err := MatMul(nil, a, bt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatMulT(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-5 {
			t.Fatalf("MatMulT mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}

	at := New(5, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			at.Data[j*4+i] = a.Data[i*5+j]
		}
	}
	c := New(4, 3)
	c.RandInit(rng, 1)
	want2, _ := MatMul(nil, at, New(4, 3))
	_ = want2
	got2, err := TMatMul(nil, a, c)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := MatMul(nil, at, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if math.Abs(float64(got2.Data[i]-ref.Data[i])) > 1e-5 {
			t.Fatalf("TMatMul mismatch at %d", i)
		}
	}
}

func TestAddBiasAndScale(t *testing.T) {
	x, _ := FromData([]float32{1, 2, 3, 4}, 2, 2)
	bias, _ := FromData([]float32{10, 20}, 1, 2)
	bias.Shape = []int{2}
	if err := AddBias(x, bias); err != nil {
		t.Fatal(err)
	}
	want := []float32{11, 22, 13, 24}
	for i := range want {
		if x.Data[i] != want[i] {
			t.Fatalf("AddBias = %v", x.Data)
		}
	}
	x.Scale(2)
	if x.Data[0] != 22 {
		t.Errorf("Scale = %v", x.Data[0])
	}
	if err := AddBias(x, New(3)); err == nil {
		t.Error("wrong bias length accepted")
	}
}

func TestSoftmaxRows(t *testing.T) {
	x, _ := FromData([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	if err := SoftmaxRows(x); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		var sum float64
		for c := 0; c < 3; c++ {
			v := float64(x.Data[r*3+c])
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax value %v out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
}

// TestGELUGradientNumerically validates the analytic GELU backward against
// central differences.
func TestGELUGradientNumerically(t *testing.T) {
	xs := []float32{-3, -1, -0.1, 0, 0.1, 1, 3}
	x, _ := FromData(append([]float32{}, xs...), 1, len(xs))
	dy := New(1, len(xs))
	for i := range dy.Data {
		dy.Data[i] = 1
	}
	dx, err := GELUBackward(nil, x, dy)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-3
	for i, v := range xs {
		num := (geluScalar(v+h) - geluScalar(v-h)) / (2 * h)
		if math.Abs(float64(num-dx.Data[i])) > 1e-3 {
			t.Errorf("gelu'(%v): analytic %v vs numeric %v", v, dx.Data[i], num)
		}
	}
}

func TestHalfRoundTripExactValues(t *testing.T) {
	// Values exactly representable in fp16 survive unchanged.
	for _, v := range []float32{0, 1, -1, 0.5, 2, 65504, -65504, 0.000061035156} {
		if got := RoundFP16(v); got != v {
			t.Errorf("RoundFP16(%v) = %v, want exact", v, got)
		}
	}
}

func TestHalfSpecialValues(t *testing.T) {
	if !math.IsInf(float64(HalfToFloat32(Float32ToHalf(float32(math.Inf(1))))), 1) {
		t.Error("+Inf not preserved")
	}
	if !math.IsNaN(float64(HalfToFloat32(Float32ToHalf(float32(math.NaN()))))) {
		t.Error("NaN not preserved")
	}
	// Overflow saturates to Inf.
	if !math.IsInf(float64(RoundFP16(1e6)), 1) {
		t.Error("1e6 should overflow to +Inf in fp16")
	}
	// Tiny values flush toward zero/subnormals.
	if v := RoundFP16(1e-10); v != 0 {
		t.Errorf("1e-10 should flush to 0, got %v", v)
	}
	// Negative zero keeps its sign.
	if bits := Float32ToHalf(float32(math.Copysign(0, -1))); bits != 0x8000 {
		t.Errorf("-0 encodes to %#x", bits)
	}
}

// TestHalfRoundTripProperty: decoding any half bit pattern and re-encoding
// reproduces it (canonical NaN aside), and rounding error of the fp16
// round trip is within half a ULP.
func TestHalfRoundTripProperty(t *testing.T) {
	f := func(h uint16) bool {
		v := HalfToFloat32(h)
		if math.IsNaN(float64(v)) {
			return true
		}
		return Float32ToHalf(v) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	g := func(raw uint32) bool {
		v := math.Float32frombits(raw)
		if math.IsNaN(float64(v)) || math.Abs(float64(v)) > 60000 || math.Abs(float64(v)) < 1e-4 {
			return true
		}
		r := RoundFP16(v)
		rel := math.Abs(float64(r-v)) / math.Abs(float64(v))
		return rel < 1.0/1024 // half ULP of a 10-bit mantissa
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestFP16BytesRoundTrip(t *testing.T) {
	vals := []float32{1, -2.5, 0.25, 100}
	b := ToFP16Bytes(vals)
	if len(b) != 8 {
		t.Fatalf("fp16 bytes = %d, want 8", len(b))
	}
	out := make([]float32, 4)
	if err := FromFP16Bytes(b, out); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Errorf("fp16 round trip: %v -> %v", vals[i], out[i])
		}
	}
	if err := FromFP16Bytes(b, make([]float32, 3)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestFP32BytesRoundTrip(t *testing.T) {
	vals := []float32{3.14159, -1e-20, 1e20}
	b := ToFP32Bytes(vals)
	out := make([]float32, len(vals))
	if err := FromFP32Bytes(b, out); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Errorf("fp32 round trip: %v -> %v", vals[i], out[i])
		}
	}
	if err := FromFP32Bytes(b[:5], make([]float32, 1)); err == nil {
		t.Error("ragged byte length accepted")
	}
}

func TestFromDataValidates(t *testing.T) {
	if _, err := FromData([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Error("shape/data mismatch accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 2)
	a.Data[0] = 5
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 5 {
		t.Error("clone shares storage")
	}
	a.Zero()
	if a.Data[0] != 0 {
		t.Error("zero failed")
	}
}
