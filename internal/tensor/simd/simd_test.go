package simd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// edgeValues are the fp32 inputs most likely to expose a divergence
// between the hardware conversion and the software reference: NaNs with
// varied payloads (quiet and signaling, both signs), infinities, zeros,
// fp32 subnormals, values rounding into fp16 subnormals, round-to-
// nearest-even ties, and the overflow boundary.
func edgeValues() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, // canonical quiet NaN
		0x7f800001, 0xff800001, // signaling NaN, minimal payload
		0x7fdfffff, 0xffdfffff, // quiet NaN, full payload
		0x7fa12345, 0x7fc54321, // assorted payloads
		0x00000001, 0x807fffff, // fp32 subnormals (flush to ±0 in fp16)
		0x00800000,             // smallest fp32 normal
		0x33000000, 0x33000001, // 2^-25 boundary: tie to zero vs round up
		0x33800000,             // 2^-24: smallest fp16 subnormal
		0x38800000,             // 2^-14: smallest fp16 normal
		0x387fc000, 0x387fe000, // just below fp16 normal range
		0x477fe000, 0x477ff000, // 65504 (fp16 max) and the tie above it
		0x477fefff, 0x47800000, // just below tie → 65504; 65536 → Inf
		0x7f7fffff,             // fp32 max → Inf
		0x3f801000, 0x3f803000, // RNE ties in the normal range (even/odd)
		0x3f801001, // just above the tie
	}
	vals := make([]float32, 0, len(bits)+3)
	for _, b := range bits {
		vals = append(vals, math.Float32frombits(b))
	}
	return append(vals, 1, -2.5, 65504)
}

func requireVector(t *testing.T) {
	t.Helper()
	if !Active() {
		t.Skip("vector kernels not active (non-amd64, missing features, or RATEL_NOSIMD)")
	}
}

// TestF16DecodeBitEqualAllPatterns decodes every one of the 65536 half
// bit patterns through both paths — every NaN payload, every subnormal,
// both infinities — and requires bitwise identity.
func TestF16DecodeBitEqualAllPatterns(t *testing.T) {
	requireVector(t)
	src := make([]byte, 2*65536)
	for i := 0; i < 65536; i++ {
		src[2*i] = byte(i)
		src[2*i+1] = byte(i >> 8)
	}
	got := make([]float32, 65536)
	want := make([]float32, 65536)
	F16Decode(got, src)
	f16DecodeGeneric(want, src)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("half %#04x: vector %#08x, reference %#08x",
				i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestF16EncodeBitEqualEdgesAndRandom checks encode bitwise identity on
// the edge-value sweep and on a large randomized bit-pattern corpus.
func TestF16EncodeBitEqualEdgesAndRandom(t *testing.T) {
	requireVector(t)
	vals := edgeValues()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1<<17; i++ {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	got := make([]byte, 2*len(vals))
	want := make([]byte, 2*len(vals))
	F16Encode(got, vals)
	f16EncodeGeneric(want, vals)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("value %#08x (index %d): vector byte %#02x, reference %#02x",
				math.Float32bits(vals[i/2]), i/2, got[i], want[i])
		}
	}
}

// TestF16RoundBitEqual checks the in-place fp16 round-trip on edges and
// random patterns.
func TestF16RoundBitEqual(t *testing.T) {
	requireVector(t)
	vals := edgeValues()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 1<<17; i++ {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}
	got := append([]float32(nil), vals...)
	want := append([]float32(nil), vals...)
	F16Round(got)
	f16RoundIntoGeneric(want, want)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("value %#08x: vector %#08x, reference %#08x",
				math.Float32bits(vals[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestCodecAllAlignmentsAndTails fuzzes every length 0..67 at every
// slice offset 0..8 (and odd byte offsets for the packed side), so the
// vector body / scalar tail seam and unaligned loads are all exercised.
func TestCodecAllAlignmentsAndTails(t *testing.T) {
	requireVector(t)
	rng := rand.New(rand.NewSource(44))
	const pad = 16
	backF := make([]float32, 67+2*pad)
	backB := make([]byte, 2*len(backF)+1)
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 8; off++ {
			for i := range backF {
				backF[i] = math.Float32frombits(rng.Uint32())
			}
			src := backF[off : off+n]

			// Encode into an odd byte offset: the 16-byte stores are unaligned.
			gotB := backB[1 : 1+2*n]
			wantB := make([]byte, 2*n)
			F16Encode(gotB, src)
			f16EncodeGeneric(wantB, src)
			for i := range gotB {
				if gotB[i] != wantB[i] {
					t.Fatalf("encode n=%d off=%d: byte %d differs", n, off, i)
				}
			}

			// Decode back from the odd offset.
			gotF := make([]float32, n)
			wantF := make([]float32, n)
			F16Decode(gotF, gotB)
			f16DecodeGeneric(wantF, gotB)
			for i := range gotF {
				if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) {
					t.Fatalf("decode n=%d off=%d: value %d differs", n, off, i)
				}
			}

			// Round in place at the offset, and from the offset into a
			// slice of its own.
			gotR := append([]float32(nil), src...)
			wantR := append([]float32(nil), src...)
			intoR := make([]float32, n+1)
			F16Round(gotR)
			f16RoundIntoGeneric(wantR, wantR)
			F16RoundInto(intoR[:n], src)
			for i := range gotR {
				if math.Float32bits(gotR[i]) != math.Float32bits(wantR[i]) || math.Float32bits(intoR[i]) != math.Float32bits(wantR[i]) {
					t.Fatalf("round n=%d off=%d: value %d differs", n, off, i)
				}
			}
			if intoR[n] != 0 {
				t.Fatalf("round n=%d off=%d wrote past dst end", n, off)
			}

			// Padding around the destination must be untouched.
			if backB[0] != 0 {
				t.Fatalf("encode n=%d off=%d wrote before dst", n, off)
			}
			for i := 1 + 2*n; i < len(backB); i++ {
				if backB[i] != 0 {
					t.Fatalf("encode n=%d off=%d wrote past dst end (byte %d)", n, off, i)
				}
				backB[i] = 0
			}
			for i := range backB[:1+2*n] {
				backB[i] = 0
			}
		}
	}
}

// TestElementwiseBitEqualAllTails checks Add and Scale bitwise against
// the references across lengths straddling the vector/tail seam.
func TestElementwiseBitEqualAllTails(t *testing.T) {
	requireVector(t)
	rng := rand.New(rand.NewSource(45))
	for n := 0; n <= 67; n++ {
		a1 := make([]float32, n)
		a2 := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			a1[i] = rng.Float32()*2 - 1
			a2[i] = a1[i]
			b[i] = rng.Float32()*2 - 1
		}
		Add(a1, b)
		addGeneric(a2, b)
		for i := range a1 {
			if math.Float32bits(a1[i]) != math.Float32bits(a2[i]) {
				t.Fatalf("add n=%d element %d", n, i)
			}
		}
		Scale(a1, -1.7)
		scaleGeneric(a2, -1.7)
		for i := range a1 {
			if math.Float32bits(a1[i]) != math.Float32bits(a2[i]) {
				t.Fatalf("scale n=%d element %d", n, i)
			}
		}
	}
}

// TestAxpyDotToleranceAndDeterminism: the FMA kernels are allowed to
// differ from the reference in rounding but must stay within tolerance,
// propagate NaN, and return identical bits on repeated invocations.
func TestAxpyDotToleranceAndDeterminism(t *testing.T) {
	requireVector(t)
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 511, 512, 1000} {
		c0 := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			c0[i] = rng.Float32()*2 - 1
			b[i] = rng.Float32()*2 - 1
		}
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		again := append([]float32(nil), c0...)
		Axpy(got, b, 0.37)
		axpyGeneric(want, b, 0.37)
		Axpy(again, b, 0.37)
		for i := range got {
			if d := math.Abs(float64(got[i] - want[i])); d > 1e-6 {
				t.Fatalf("axpy n=%d element %d: %v vs %v", n, i, got[i], want[i])
			}
			if math.Float32bits(got[i]) != math.Float32bits(again[i]) {
				t.Fatalf("axpy n=%d element %d: nondeterministic", n, i)
			}
		}
		d1 := Dot(c0, b)
		d2 := dotGeneric(c0, b)
		if math.Abs(float64(d1-d2)) > 1e-4*(math.Abs(float64(d2))+1) {
			t.Fatalf("dot n=%d: %v vs %v", n, d1, d2)
		}
		if math.Float32bits(Dot(c0, b)) != math.Float32bits(d1) {
			t.Fatalf("dot n=%d: nondeterministic", n)
		}
	}

	// NaN and Inf propagate through zero coefficients (no zero-skip).
	nan := float32(math.NaN())
	c := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	bn := []float32{nan, 1, 1, 1, 1, 1, 1, 1, 1}
	Axpy(c, bn, 0)
	if !math.IsNaN(float64(c[0])) {
		t.Errorf("axpy: 0*NaN gave %v, want NaN", c[0])
	}
	if !math.IsNaN(float64(Dot(bn, make([]float32, 9)))) {
		t.Errorf("dot: NaN*0 did not propagate")
	}
}

// onEveryLevel runs f with the dispatch pinned to each kernel set this
// machine has in turn, so the AVX2 bodies stay covered on a host that selects
// AVX-512 and the references everywhere.
func onEveryLevel(t *testing.T, f func(t *testing.T)) {
	for _, level := range Levels() {
		restore := ForceLevel(level)
		t.Run(level, f)
		restore()
	}
}

// gemmPanel packs an nr-column panel and sweeps m/GemmMR row tiles over it —
// in one call or tile by tile, which must not matter: what the GEMM driver
// does per column panel and k-block.
func gemmPanel(c []float32, ldc int, a []float32, ars, aps, m int, b []float32, ldb, nr, kc int, bp []float32, accumulate bool) {
	PackPanel(bp, b, ldb, kc, nr)
	if kc%2 == 0 {
		GemmTiles(c, ldc, a, ars, aps, m, bp, nr, kc, accumulate)
		return
	}
	for i := 0; i < m; i += GemmMR {
		GemmTiles(c[i*ldc:], ldc, a[i*ars:], ars, aps, GemmMR, bp, nr, kc, accumulate)
	}
}

// TestGemmPanelBitIdenticalToAxpy: on every level a packed panel swept by
// tiles is, element for element, the chain Axpy performs on a zeroed row —
// for a·b and aᵀ·b addressing, the full and the half panel, odd and even
// depths, one and several row tiles, a sweep split into two accumulating
// calls — and it writes nothing outside its m x nr cells.
func TestGemmPanelBitIdenticalToAxpy(t *testing.T) {
	onEveryLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		const ldc, ldb = GemmNR + 5, GemmNR + 3
		for _, nr := range []int{GemmNR, GemmNRHalf} {
			for _, m := range []int{GemmMR, 3 * GemmMR} {
				for _, kc := range []int{1, 2, 3, 7, 64, 255, 256} {
					a := make([]float32, m*kc)
					b := make([]float32, kc*ldb)
					bp := make([]float32, kc*nr)
					for i := range a {
						a[i] = rng.Float32()*2 - 1
					}
					for i := range b {
						b[i] = rng.Float32()*2 - 1
					}
					for _, tr := range []bool{false, true} {
						ars, aps := kc, 1 // a is [m,kc]
						if tr {
							ars, aps = 1, m // a is [kc,m], read transposed
						}
						want := make([]float32, m*ldc)
						got := make([]float32, m*ldc)
						for i := range got {
							got[i] = 7 // dirty, and a guard beyond column nr
							if i%ldc >= nr {
								want[i] = 7
							}
						}
						for i := 0; i < m; i++ {
							for p := 0; p < kc; p++ {
								Axpy(want[i*ldc:i*ldc+nr], b[p*ldb:p*ldb+nr], a[i*ars+p*aps])
							}
						}
						k1 := kc / 2
						if k1 > 0 {
							gemmPanel(got, ldc, a, ars, aps, m, b, ldb, nr, k1, bp, false)
							gemmPanel(got, ldc, a[k1*aps:], ars, aps, m, b[k1*ldb:], ldb, nr, kc-k1, bp, true)
						} else {
							gemmPanel(got, ldc, a, ars, aps, m, b, ldb, nr, kc, bp, false)
						}
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("nr=%d m=%d kc=%d transposed=%v: c[%d,%d] = %v, axpy chain %v", nr, m, kc, tr, i/ldc, i%ldc, got[i], want[i])
							}
						}
					}
				}
			}
		}
	})
}

// TestDotRowBitIdenticalToDot: every cell of a DotRow is the Dot of its two
// rows, bit for bit, whichever of the six-cell, three-cell, tail-block,
// scalar-tail and ragged-cell paths it took — row lengths with every n mod 32
// tail and both sides of every body's length rule, one to thirteen cells.
func TestDotRowBitIdenticalToDot(t *testing.T) {
	onEveryLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(48))
		for _, k := range []int{1, 7, 8, 9, 24, 31, 32, 33, 40, 56, 64, 71, 72, 120, 127, 128, 129, 136, 152, 256, 257, 1024, 1031} {
			for n := 1; n <= 13; n++ {
				ldb := k + 3
				a := make([]float32, k)
				b := make([]float32, n*ldb)
				for i := range a {
					a[i] = rng.Float32()*2 - 1
				}
				for i := range b {
					b[i] = rng.Float32()*2 - 1
				}
				got := make([]float32, n+1)
				got[n] = 7 // guard
				DotRow(got[:n], a, b, ldb)
				for j := 0; j < n; j++ {
					if want := Dot(a, b[j*ldb:j*ldb+k]); math.Float32bits(got[j]) != math.Float32bits(want) {
						t.Fatalf("k=%d n=%d: cell %d = %v, Dot %v", k, n, j, got[j], want)
					}
				}
				if got[n] != 7 {
					t.Fatalf("k=%d n=%d: DotRow wrote past its row", k, n)
				}
			}
		}
	})
}

// TestTileTiersBitIdentical: the vector levels are one answer. The same
// panel sweep and the same rows of dot products, on operands with signed
// zeros, subnormals and fp16-grid values, leave the same bits under every
// vector level this machine has (the reference rounds differently: it does not
// fuse).
func TestTileTiersBitIdentical(t *testing.T) {
	levels := Levels()[1:]
	if len(levels) < 2 {
		t.Skip("fewer than two vector levels on this machine")
	}
	rng := rand.New(rand.NewSource(50))
	special := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x80000123), 6.1035156e-05, -65504}
	fill := func(d []float32) {
		for i := range d {
			if rng.Intn(4) == 0 {
				d[i] = special[rng.Intn(len(special))]
			} else {
				d[i] = HalfToFloat32(Float32ToHalf(float32(rng.NormFloat64())))
			}
		}
	}
	const m, kc, cells = 2 * GemmMR, 300, 13
	a, b := make([]float32, m*kc), make([]float32, kc*GemmNR)
	rows := make([]float32, cells*kc)
	fill(a)
	fill(b)
	fill(rows)
	var want []float32
	for _, level := range levels {
		restore := ForceLevel(level)
		got := make([]float32, m*GemmNR+cells)
		bp := make([]float32, kc*GemmNR)
		gemmPanel(got, GemmNR, a, kc, 1, m, b, GemmNR, GemmNR, kc-100, bp, false)
		gemmPanel(got, GemmNR, a[kc-100:], kc, 1, m, b[(kc-100)*GemmNR:], GemmNR, GemmNR, 100, bp, true)
		DotRow(got[m*GemmNR:], a[:kc], rows, kc)
		restore()
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: value %d = %v (%#08x), %s has %v (%#08x)", level, i, got[i], math.Float32bits(got[i]), levels[0], want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// TestForceLevel pins each level this machine has, by name, and restores the
// selection.
func TestForceLevel(t *testing.T) {
	selected := Level()
	for _, level := range Levels() {
		restore := ForceLevel(level)
		if Level() != level || Active() != (level != "generic") {
			restore()
			t.Fatalf("ForceLevel(%q) selected %q (active %v)", level, Level(), Active())
		}
		restore()
		if Level() != selected {
			t.Fatalf("restore after ForceLevel(%q) left %q selected, want %q", level, Level(), selected)
		}
	}
	if Levels()[0] != "generic" || Available() != (len(Levels()) > 1) {
		t.Fatalf("Levels() = %v, Available() = %v", Levels(), Available())
	}
	defer func() {
		if recover() == nil {
			t.Error("ForceLevel accepted a level this machine does not have")
		}
	}()
	ForceLevel("avx1024")
}

// TestForceGeneric: the same hook for the reference.
func TestForceGeneric(t *testing.T) {
	selected := Level()
	restore := ForceGeneric()
	if Active() || Level() != "generic" {
		restore()
		t.Fatal("ForceGeneric did not pin the generic kernels")
	}
	restore()
	if Level() != selected {
		t.Fatal("restore did not reselect the previous kernels")
	}
}

// TestNoSIMDEnvParsing pins the RATEL_NOSIMD contract: unset and "0"
// keep the vector kernels, anything else vetoes them.
func TestNoSIMDEnvParsing(t *testing.T) {
	for v, want := range map[string]bool{"": false, "0": false, "1": true, "true": true, "yes": true} {
		if got := noSIMDEnv(v); got != want {
			t.Errorf("noSIMDEnv(%q) = %v, want %v", v, got, want)
		}
	}
}

// adamTestCoef is step t of the default Adam configuration, with or without
// decoupled weight decay.
func adamTestCoef(t int, wd float64) AdamCoef {
	const b1, b2, lr = 0.9, 0.999, 1e-3
	return AdamCoef{
		B1: b1, OmB1: 1 - b1, B2: b2, OmB2: 1 - b2,
		B1c: 1 - math.Pow(b1, float64(t)), B2c: 1 - math.Pow(b2, float64(t)),
		LR: lr, Eps: 1e-8, WD: wd, LRWD: lr * wd,
	}
}

// adamTestState fills n elements of state and gradient from classes that
// reach every corner of the formula: signed zeros, fp32 subnormals, a fresh
// group (m = v = 0) with and without a gradient, the 6.5e4 scale of a
// loss-scaled fp16 gradient, the 1e-30 scale where v underflows to a
// subnormal, and ordinary values.
func adamTestState(rng *rand.Rand, n int) (p, m, v, g []float32) {
	p, m, v, g = make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	negZero := float32(math.Copysign(0, -1))
	sub := math.Float32frombits(0x00000123)
	for i := range p {
		sign := float32(1 - 2*rng.Intn(2))
		p[i] = sign * rng.Float32()
		switch rng.Intn(8) {
		case 0: // fresh state, zero gradient: 0/(0+eps)
			g[i] = []float32{0, negZero}[rng.Intn(2)]
		case 1: // fresh state
			g[i] = sign * rng.Float32()
		case 2:
			p[i], m[i], v[i], g[i] = negZero, negZero, 0, sub
		case 3:
			p[i], m[i], v[i], g[i] = sub, -sub, sub, -sub
		case 4:
			m[i], v[i], g[i] = sign*6.5e4*rng.Float32(), 4e9*rng.Float32(), -sign*6.5e4*rng.Float32()
		case 5:
			m[i], v[i], g[i] = sign*1e-30*rng.Float32(), 1e-38*rng.Float32(), sign*1e-30*rng.Float32()
		default:
			m[i], v[i], g[i] = float32(rng.NormFloat64())*0.01, rng.Float32()*1e-3, float32(rng.NormFloat64())*0.1
		}
	}
	return p, m, v, g
}

// sameFloat is bit equality, except that two NaNs are equal whatever their
// payloads: which operand's payload an operation propagates depends on
// operand order, which the vector body does not promise to share.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestAdamBitIdenticalToReference: on every level, over decoded slices and
// over state stored as its distance from P16 (AdamDelta, decoded again after
// the walk), whole or cut at any chunk boundary, the kernel leaves exactly
// what AdamCoef.update leaves element by element — and P16 = fp16 of it — at
// lengths around the 4-lane body and the optimizer's chunk grain, with and
// without weight decay, over every value class above and, by class, over
// non-finite state.
// What it can catch is a wrong operand, constant, order, branch or tail: a
// last-place float64 difference (a fused multiply-add) survives the float32
// narrowing about once in 2^29 elements, so that the body fuses nothing rests
// on its instruction list, not on this table.
func TestAdamBitIdenticalToReference(t *testing.T) {
	onEveryLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(49))
		nan, inf := float32(math.NaN()), float32(math.Inf(1))
		lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8191, 8192, 8193}
		for _, n := range lengths {
			for _, wd := range []float64{0, 0.01} {
				for _, nonFinite := range []bool{false, true} {
					k := adamTestCoef(1+rng.Intn(50), wd)
					p, m, v, g := adamTestState(rng, n)
					if nonFinite {
						for i, x := range []float32{nan, inf, -inf, nan, inf} {
							if i < n {
								[][]float32{p, m, v, g, g}[i][i] = x
							}
						}
					}
					wantP, wantM, wantV := make([]float32, n), make([]float32, n), make([]float32, n)
					for i := range p {
						wantP[i], wantM[i], wantV[i] = k.update(p[i], m[i], v[i], float64(g[i]))
					}
					// Cut points: none, then a few that leave the body's
					// 4-element groups misaligned on both sides.
					for _, cut := range []int{0, 1, n / 3, n - 2} {
						if cut < 0 || cut > n {
							continue
						}
						sp, sm, sv := append([]float32(nil), p...), append([]float32(nil), m...), append([]float32(nil), v...)
						Adam(k, sp[:cut], sm[:cut], sv[:cut], g[:cut])
						Adam(k, sp[cut:], sm[cut:], sv[cut:], g[cut:])

						d, w, gp := make([]byte, 2*n), make([]float32, n), make([]float32, n)
						esc, out := make([]byte, EscapeBytes*n), make([]byte, EscapeBytes*n)
						esc = esc[:EscapeBytes*DeltaEncode(d, p, w, 0, esc)]
						wm, wv := make([]byte, 4*n), make([]byte, 4*n)
						for i := range p {
							storeF32(wm[4*i:], m[i])
							storeF32(wv[4*i:], v[i])
						}
						nout := AdamDelta(k, 0, d[:2*cut], wm[:4*cut], wv[:4*cut], g[:cut], w[:cut], esc, out)
						for len(esc) > 0 && int(binary.LittleEndian.Uint32(esc)) < cut {
							esc = esc[EscapeBytes:]
						}
						nout += AdamDelta(k, cut, d[2*cut:], wm[4*cut:], wv[4*cut:], g[cut:], w[cut:], esc, out[EscapeBytes*nout:])
						DeltaDecode(gp, d, w, 0, out[:EscapeBytes*nout])

						for i := 0; i < n; i++ {
							if !sameFloat(sp[i], wantP[i]) || !sameFloat(sm[i], wantM[i]) || !sameFloat(sv[i], wantV[i]) {
								t.Fatalf("Adam n=%d wd=%v cut=%d: element %d (p,m,v,g = %g,%g,%g,%g) = (%g,%g,%g), reference (%g,%g,%g)",
									n, wd, cut, i, p[i], m[i], v[i], g[i], sp[i], sm[i], sv[i], wantP[i], wantM[i], wantV[i])
							}
							gm, gv := loadF32(wm[4*i:]), loadF32(wv[4*i:])
							if !sameFloat(gp[i], wantP[i]) || !sameFloat(gm, wantM[i]) || !sameFloat(gv, wantV[i]) || !sameFloat(w[i], roundHalf(wantP[i])) {
								t.Fatalf("AdamDelta n=%d wd=%v cut=%d: element %d = (%g,%g,%g) P16 %g, reference (%g,%g,%g)",
									n, wd, cut, i, gp[i], gm, gv, w[i], wantP[i], wantM[i], wantV[i])
							}
							if !nonFinite && (wantP[i] != wantP[i] || wantV[i] < 0) {
								t.Fatalf("n=%d element %d: finite state produced p=%g v=%g", n, i, wantP[i], wantV[i])
							}
						}
					}
				}
			}
		}
	})
}
