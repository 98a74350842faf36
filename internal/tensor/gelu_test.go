package tensor

import (
	"math"
	"math/rand"
	"testing"

	"ratel/internal/tensor/simd"
)

// checkGELUMatchesFormula asserts that GELU and GELUBackward return, for
// every element of xs, exactly the bits of the scalar float64 formulas, on
// the selected kernel set and pinned to the generic one.
func checkGELUMatchesFormula(t *testing.T, xs []float32) {
	t.Helper()
	x, err := FromData(xs, 1, len(xs))
	if err != nil {
		t.Fatal(err)
	}
	dy := New(1, len(xs))
	for i := range dy.Data {
		dy.Data[i] = float32(i%13)*0.37 - 2.1
	}
	for _, pin := range []bool{false, true} {
		restore := func() {}
		if pin {
			restore = simd.ForceGeneric()
		}
		y := GELU(nil, x)
		dx, err := GELUBackward(nil, x, dy)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range xs {
			if got, want := math.Float32bits(y.Data[i]), math.Float32bits(geluScalar(v)); got != want {
				t.Fatalf("generic=%v: GELU(%#08x) = %#08x, formula %#08x", pin, math.Float32bits(v), got, want)
			}
			if got, want := math.Float32bits(dx.Data[i]), math.Float32bits(dy.Data[i]*geluGradScalar(v)); got != want {
				t.Fatalf("generic=%v: GELUBackward(%#08x) = %#08x, formula %#08x", pin, math.Float32bits(v), got, want)
			}
		}
	}
}

// TestGELUTableExhaustive feeds every binary16 pattern — both zeros, the
// subnormals, both infinities and every NaN payload — through the table
// kernels.
func TestGELUTableExhaustive(t *testing.T) {
	xs := make([]float32, 1<<16)
	for h := range xs {
		xs[h] = HalfToFloat32(uint16(h))
	}
	checkGELUMatchesFormula(t, xs)
}

// TestGELUOffGridTakesFormula: float32 values that are not binary16 values
// bit for bit (the grid switched off, overflow and underflow of the half
// range, NaNs) must not be looked up under the half they would round to.
func TestGELUOffGridTakesFormula(t *testing.T) {
	xs := []float32{
		0.1, -0.1, 1.0000001, -2.9999998, 1e-3, 3.1415927,
		65504.004, 65520, 1e6, -1e6, math.MaxFloat32, // past the largest half
		6.1035156e-05 * 0.99999994, 5.9604645e-08 / 2, 5.9604645e-08 * 1.5, 1e-30, -1e-30, // under the smallest normal / subnormal half
		math.SmallestNonzeroFloat32,
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00000), // quiet NaNs: payload, sign
		math.Float32frombits(0x7f800001), math.Float32frombits(0x7fa00000), // signalling NaNs
		math.Float32frombits(0x3f802000 | 1), math.Float32frombits(0x3f801000), // one bit off the grid
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1<<12; i++ {
		xs = append(xs, float32(rng.NormFloat64()*3))
	}
	checkGELUMatchesFormula(t, xs)
}

// TestNormalHalf checks the integer grid test against the codec at the
// edges of the normal binary16 range.
func TestNormalHalf(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		v := HalfToFloat32(uint16(h))
		got, ok := normalHalf(v)
		e := h >> 10 & 0x1f
		if want := e != 0 && e != 0x1f; ok != want {
			t.Fatalf("normalHalf(half %#04x) ok = %v, want %v", h, ok, want)
		}
		if ok && got != uint16(h) {
			t.Fatalf("normalHalf(half %#04x) = %#04x", h, got)
		}
		// The neighbouring float32 is never a half.
		if _, ok := normalHalf(math.Float32frombits(math.Float32bits(v) + 1)); ok {
			t.Fatalf("normalHalf accepted half %#04x + 1 ulp", h)
		}
	}
}

// TestGELUAllocs pins the lookup kernels at their result tensor's three
// allocations (header, shape, data): the grid test is integer arithmetic on
// the element's bits, so nothing is staged through scratch that a
// dispatch-table call would move to the heap (the engine's steady-state
// budget is the other fence; make test-procs runs both).
func TestGELUAllocs(t *testing.T) {
	x := New(8, 256)
	for i := range x.Data {
		x.Data[i] = RoundFP16(float32(i%97)*0.05 - 2.4)
	}
	dy := x.Clone()
	GELU(nil, x) // builds the table
	if allocs := testing.AllocsPerRun(20, func() { GELU(nil, x) }); allocs != 3 {
		t.Errorf("GELU: %v allocs/run, want 3", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = GELUBackward(nil, x, dy) }); allocs != 3 {
		t.Errorf("GELUBackward: %v allocs/run, want 3", allocs)
	}
}
