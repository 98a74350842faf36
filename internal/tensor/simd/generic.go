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

// GemmPanelGeneric is the reference panel: each of the m rows is zeroed
// (unless accumulating) and updated by AxpyGeneric once per p, in
// increasing p, straight from b.
func GemmPanelGeneric(c []float32, ldc int, a []float32, ars, aps, m int, b []float32, ldb, kc int, accumulate bool) {
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+GemmNR]
		if !accumulate {
			clear(crow)
		}
		for p := 0; p < kc; p++ {
			AxpyGeneric(crow, b[p*ldb:p*ldb+GemmNR], a[i*ars+p*aps])
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

// F16RoundGeneric rounds every element through binary16 in place.
func F16RoundGeneric(d []float32) {
	for i, v := range d {
		d[i] = HalfToFloat32(Float32ToHalf(v))
	}
}

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
