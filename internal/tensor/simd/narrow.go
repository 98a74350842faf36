package simd

import "encoding/binary"

// The narrow codec stores a little-endian fp32 plane of Adam moments in 3.5
// bytes per element: each value's low three bytes as they are, and its top
// byte — sign and the exponent's high seven bits — as a 4-bit code relative
// to a base the plane carries. Codes pack two to a byte, the even element's
// in the low nibble. A top byte the code cannot hold is an escape: its code
// is 0 and the value's bits travel in an escape record (EscapeBytes, as the Δ
// codec's) instead.
//
// Code 0 is a zero top byte. An unsigned plane (V, never negative) codes the
// 15 top bytes base … base+14 as 1 … 15. A signed plane (M) codes its sign
// in bit 3 and the magnitude byte (top & 0x7f) in bits 0-2: 0 for zero, 1 … 7
// for base … base+6 — the two signs are two clusters of one magnitude
// distribution, so one window serves both.

// Narrow is a plane's code: signed (M) or not (V), and its window's base.
type Narrow struct {
	Signed bool
	Base   uint8
}

// span is the window's width and mask the magnitude bits of a top byte.
func (c Narrow) span() (span int, mask uint8) {
	if c.Signed {
		return 7, 0x7f
	}
	return 15, 0xff
}

// Valid reports whether the window lies within the magnitude byte.
func (c Narrow) Valid() bool {
	span, mask := c.span()
	return int(c.Base)+span-1 <= int(mask)
}

// Fit is the code of c's kind whose window holds the most of hist, a count
// of a plane's top bytes by value (zero magnitudes, which always fit, aside):
// c itself unless another holds strictly more.
func (c Narrow) Fit(hist *[256]int) Narrow {
	span, mask := c.span()
	var mag [256]int
	for b, k := range hist {
		mag[uint8(b)&mask] += k
	}
	most := 0
	for a := int(c.Base); a < int(c.Base)+span; a++ {
		most += mag[a] // a >= 1 unless c.Base is 0
	}
	if c.Base == 0 {
		most -= mag[0]
	}
	for a, in := 1, 0; a <= int(mask); a++ { // the window [a-span+1, a]
		if in += mag[a]; a > span {
			in -= mag[a-span]
		}
		if base := a - span + 1; base >= 1 && in > most {
			c.Base, most = uint8(base), in
		}
	}
	return c
}

// Tally adds to hist the top bytes of every every-th of the n values of a
// narrow plane in code c whose codes are codes, each counted as every
// values. Code 0, a zero or an escape, adds nothing.
func (c Narrow) Tally(hist *[256]int, codes []byte, n, every int) {
	lut := c.lut()
	for i := 0; i < n; i += every {
		if k := codes[i/2] >> (4 * (i & 1)) & 0x0f; k != 0 {
			hist[lut[k]] += every
		}
	}
}

// lut is the decoder's table: the top byte of each code.
func (c Narrow) lut() (t [16]byte) {
	span, _ := c.span()
	for i := 1; i <= span; i++ {
		t[i] = c.Base + uint8(i-1)
	}
	if c.Signed {
		for i := range 8 {
			t[8+i] = 0x80 | t[i]
		}
	}
	return t
}

// code is the code of top byte b and whether the window holds it.
func (c Narrow) code(b uint8) (uint8, bool) {
	span, mask := c.span()
	a, sign := b&mask, (b&^mask)>>4
	if a == 0 {
		return sign, true
	}
	if off := a - c.Base; int(off) < span {
		return sign | (off + 1), true
	}
	return 0, false
}

// NarrowBytes is the size of an n-element plane in the narrow codec, its
// escapes aside.
func NarrowBytes(n int) int { return 3*n + (n+1)/2 }

// NarrowEncode stores the n = len(src)/4 values of the fp32 plane src in
// narrow code c: their low bytes in lo (3n bytes) and their codes in codes
// (⌈n/2⌉ bytes; an odd n's last high nibble is 0), listing every escape in
// out as index base+i with the value's bits. It returns the number of
// records; out must have room for n. src must not overlap lo or codes.
func NarrowEncode(lo, codes, src []byte, c Narrow, base int, out []byte) int {
	return active.narrowEnc(lo, codes, src, c, base, out)
}

// NarrowDecode is its decoder: dst (4n bytes) gets each value from lo and
// codes, or the bits of the record for index base+i. esc starts at the first
// record at or after base; records past the range end it.
func NarrowDecode(dst, lo, codes []byte, c Narrow, base int, esc []byte) {
	active.narrowDec(dst, lo, codes, c.lut())
	n := len(dst) / 4
	for ; len(esc) >= EscapeBytes; esc = esc[EscapeBytes:] {
		i := int(binary.LittleEndian.Uint32(esc)) - base
		if i >= n {
			return
		}
		copy(dst[4*i:4*i+4], esc[4:EscapeBytes])
	}
}

// narrowEncGeneric is the reference encoder, a pair of elements at a time.
func narrowEncGeneric(lo, codes, src []byte, c Narrow, base int, out []byte) (nesc int) {
	n := len(src) / 4
	for i := 0; i < n; i += 2 {
		var pair uint8
		for j := i; j < min(i+2, n); j++ {
			x := binary.LittleEndian.Uint32(src[4*j:])
			lo[3*j], lo[3*j+1], lo[3*j+2] = byte(x), byte(x>>8), byte(x>>16)
			k, ok := c.code(uint8(x >> 24))
			if !ok {
				binary.LittleEndian.PutUint32(out[EscapeBytes*nesc:], uint32(base+j))
				binary.LittleEndian.PutUint32(out[EscapeBytes*nesc+4:], x)
				nesc++
			}
			pair |= k << (4 * (j - i))
		}
		codes[i/2] = pair
	}
	return nesc
}

// narrowDecGeneric is the reference decoder through the code table, escapes
// aside.
func narrowDecGeneric(dst, lo, codes []byte, lut [16]byte) {
	for i := range len(dst) / 4 {
		k := codes[i/2] >> (4 * (i & 1)) & 0x0f
		dst[4*i], dst[4*i+1], dst[4*i+2], dst[4*i+3] = lo[3*i], lo[3*i+1], lo[3*i+2], lut[k]
	}
}
