package simd

import (
	"encoding/binary"
	"math"
)

// The *Generic kernels are the portable reference implementations: the
// semantic contract the assembly kernels are tested against, and the
// fallback selected on non-amd64 machines or under RATEL_NOSIMD=1. They
// are exported for the equality/tolerance test matrix; production code
// must call the dispatch entry points instead (the simddispatch analyzer
// enforces this).

// Float32ToHalf converts with round-to-nearest-even, producing the
// binary16 bit pattern. Every NaN maps to the canonical quiet NaN
// sign|0x7e00 (payloads are not preserved across the 32→16 narrowing).
func Float32ToHalf(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	mant := b & 0x7fffff

	switch {
	case exp >= 0x1f: // overflow or inf/nan
		if b&0x7fffffff > 0x7f800000 { // NaN
			return sign | 0x7e00
		}
		return sign | 0x7c00 // Inf
	case exp <= 0: // subnormal or zero
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		// Round to nearest even.
		rem := mant & ((1 << shift) - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp)<<10 | uint16(mant>>13)
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++ // may carry into the exponent, which is correct
		}
		return half
	}
}

// HalfToFloat32 decodes a binary16 bit pattern. NaN payloads widen
// unchanged (mantissa bits shift up 13), signaling NaNs included.
func HalfToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case exp == 0x1f:
		return math.Float32frombits(sign | 0x7f800000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// AxpyGeneric is the reference row update c[j] += a*b[j]: separate
// multiply and add, one element at a time, in increasing j.
func AxpyGeneric(c, b []float32, a float32) {
	for j := range c {
		c[j] += a * b[j]
	}
}

// DotGeneric is the reference inner product: a single accumulator in
// increasing index order.
func DotGeneric(a, b []float32) float32 {
	var s float32
	for p := range a {
		s += a[p] * b[p]
	}
	return s
}

// PackPanelGeneric is the reference pack: kc rows of nr floats, ldb apart in
// b, contiguous in bp.
func PackPanelGeneric(bp, b []float32, ldb, kc, nr int) {
	for p := 0; p < kc; p++ {
		copy(bp[p*nr:(p+1)*nr], b[p*ldb:p*ldb+nr])
	}
}

// GemmTilesGeneric is the reference tile sweep: each of the m rows is zeroed
// (unless accumulating) and updated by AxpyGeneric once per p, in increasing
// p, from the packed rows.
func GemmTilesGeneric(c []float32, ldc int, a []float32, ars, aps, m int, bp []float32, nr, kc int, accumulate bool) {
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+nr]
		if !accumulate {
			clear(crow)
		}
		for p := 0; p < kc; p++ {
			AxpyGeneric(crow, bp[p*nr:(p+1)*nr], a[i*ars+p*aps])
		}
	}
}

// DotRowGeneric is the reference row of a·bᵀ: one DotGeneric per cell.
func DotRowGeneric(c, a, b []float32, ldb int) {
	for j := range c {
		c[j] = DotGeneric(a, b[j*ldb:j*ldb+len(a)])
	}
}

// F16EncodeGeneric packs src as little-endian binary16 into dst
// (2*len(src) bytes), round-to-nearest-even.
func F16EncodeGeneric(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint16(dst[2*i:], Float32ToHalf(v))
	}
}

// F16DecodeGeneric unpacks little-endian binary16 from src into dst
// (len(src)/2 values).
func F16DecodeGeneric(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = HalfToFloat32(binary.LittleEndian.Uint16(src[2*i:]))
	}
}

// F16RoundIntoGeneric writes every element of src, rounded through binary16,
// to dst.
func F16RoundIntoGeneric(dst, src []float32) {
	for i, v := range src {
		dst[i] = HalfToFloat32(Float32ToHalf(v))
	}
}

// F16RoundGeneric rounds every element through binary16 in place.
func F16RoundGeneric(d []float32) { F16RoundIntoGeneric(d, d) }

// AddGeneric is the reference element-wise a[i] += b[i].
func AddGeneric(a, b []float32) {
	for i := range a {
		a[i] += b[i]
	}
}

// ScaleGeneric is the reference element-wise d[i] *= s.
func ScaleGeneric(d []float32, s float32) {
	for i := range d {
		d[i] *= s
	}
}

// AdamCoef is one Adam update's scalars: the hyperparameters, the products
// of them every element shares, and the step's bias corrections (1 - beta^t).
// The assembly kernel reads the fields by offset: keep them ten float64s in
// this order.
type AdamCoef struct {
	B1, OmB1, B2, OmB2 float64 // beta, 1 - beta
	B1c, B2c           float64
	LR, Eps, WD, LRWD  float64 // WD != 0 selects decoupled decay by LRWD = LR*WD
}

// update is Adam's arithmetic for one element, written once: the definition
// the generic kernels apply and the AVX2 body transcribes, one correctly
// rounded float64 operation per operator, in this order. Every product that
// feeds an add or a subtract goes through an explicit conversion, which the
// language defines as a rounding point: without one a compiler may fuse
// x*y + z into a single rounding (arm64 does, amd64 may at GOAMD64=v3), and
// "assembly ≡ reference" would depend on build flags. The gradient arrives
// widened so the body fits the compiler's inlining budget.
func (k *AdamCoef) update(p, m, v float32, g float64) (float32, float32, float32) {
	mi := float64(k.B1*float64(m)) + float64(k.OmB1*g)
	vi := float64(k.B2*float64(v)) + float64(k.OmB2*g*g)
	pf := float64(p) - k.LR*(mi/k.B1c)/(math.Sqrt(vi/k.B2c)+k.Eps)
	if k.WD != 0 {
		pf -= float64(k.LRWD * float64(p))
	}
	return float32(pf), float32(mi), float32(vi)
}

// AdamGeneric is the reference update over decoded slices.
func AdamGeneric(k AdamCoef, p, m, v, grad []float32) {
	for i, g := range grad {
		p[i], m[i], v[i] = k.update(p[i], m[i], v[i], float64(g))
	}
}

// AdamDeltaGeneric is the reference body of AdamDelta's walk: element by
// element it decodes the master (P16 + Δ), applies the update and encodes the
// result, and it stops — storing nothing for that element — at the first one
// whose new Δ does not fit. It returns how many elements it stored.
func AdamDeltaGeneric(k AdamCoef, d, m, v []byte, grad, w []float32) int {
	for i, g := range grad {
		_, mn, vn, wn, dl, ok := k.deltaUpdate(decodeDelta(w[i], d[2*i:]), loadF32(m[4*i:]), loadF32(v[4*i:]), float64(g))
		if !ok {
			return i
		}
		storeF32(m[4*i:], mn)
		storeF32(v[4*i:], vn)
		w[i] = wn
		binary.LittleEndian.PutUint16(d[2*i:], uint16(dl))
	}
	return len(grad)
}

func loadF32(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }

func storeF32(b []byte, f float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(f)) }
