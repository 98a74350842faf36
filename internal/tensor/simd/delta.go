package simd

import (
	"encoding/binary"
	"math"
)

// The Δ codec stores an fp32 master weight as its distance from P16, the
// fp16 copy of it the host already holds: Δ = bits(P32) − bits(fp16(P32)).
// fp16 keeps 10 of fp32's 23 mantissa bits, so across fp16's normal range Δ
// is the 13 low bits P16 zeroes, read as a signed number, and P32 = P16 + Δ is
// exact. A Δ is stored in 13 bits, [−4096, 4095]: a master whose distance
// does not fit — the tie Δ = +4096, an fp16-subnormal magnitude, a finite
// value that rounds to Inf, most NaN payloads — is an escape: its Δ is stored
// as 0 and its bits travel in an escape record instead.
//
// The walk and the encoders work on a plane of little-endian int16 Δs; a
// stored plane packs them 13 bits each, element i at bits [13i, 13i+13) of
// the little-endian bit stream (PackDelta, UnpackDelta).

// EscapeBytes is the size of one escape record: the element's index and the
// master's fp32 bits, each a little-endian uint32. A list of records is
// sorted by index.
const EscapeBytes = 8

// deltaOf is Δ = bits(p) − bits(w) and whether it fits in 13 bits; Δ is 0
// when it does not.
func deltaOf(p, w float32) (int16, bool) {
	d := int32(math.Float32bits(p) - math.Float32bits(w))
	if d != d<<19>>19 {
		return 0, false
	}
	return int16(d), true
}

// DeltaBytes is the size of an n-element plane of 13-bit Δs.
func DeltaBytes(n int) int { return (13*n + 7) / 8 }

// PackDelta stores the n = len(src)/2 little-endian int16 Δs of src, each in
// [−4096, 4095], 13 bits each into dst (DeltaBytes(n) bytes; the last byte's
// bits past the plane are 0). dst and src must not overlap.
func PackDelta(dst, src []byte) { active.deltaPack(dst, src) }

// UnpackDelta is its inverse: the n = len(dst)/2 Δs of the packed plane src,
// sign-extended into dst as little-endian int16.
func UnpackDelta(dst, src []byte) { active.deltaUnpack(dst, src) }

// packDeltaGeneric is the reference packer. Eight Δs are 13 bytes, a uint64
// and the 40 bits after it, built from the group's two uint64s of four
// int16s each.
func packDeltaGeneric(dst, src []byte) {
	const f = 0x1fff
	n, i, at := len(src)/2, 0, 0
	for ; i+8 <= n; i, at = i+8, at+13 {
		s, d := src[2*i:2*i+16], dst[at:at+13]
		a, b := binary.LittleEndian.Uint64(s), binary.LittleEndian.Uint64(s[8:])
		lo := a&f | a>>16&f<<13 | a>>32&f<<26 | a>>48&f<<39 | b&f<<52
		hi := b&f>>12 | b>>16&f<<1 | b>>32&f<<14 | b>>48&f<<27
		binary.LittleEndian.PutUint64(d, lo)
		binary.LittleEndian.PutUint32(d[8:], uint32(hi))
		d[12] = byte(hi >> 32)
	}
	acc, bits := uint32(0), 0
	for ; i < n; i++ {
		acc |= uint32(binary.LittleEndian.Uint16(src[2*i:])&f) << bits
		for bits += 13; bits >= 8; bits -= 8 {
			dst[at], acc, at = byte(acc), acc>>8, at+1
		}
	}
	if bits > 0 {
		dst[at] = byte(acc)
	}
}

// unpackDeltaGeneric is the reference unpacker.
func unpackDeltaGeneric(dst, src []byte) {
	// ext sign-extends the 13-bit field at bit k of x into a 16-bit lane.
	ext := func(x uint64, k uint) uint64 { return (x>>k&0x1fff ^ 0x1000 - 0x1000) & 0xffff }
	n, i, at := len(dst)/2, 0, 0
	for ; i+8 <= n; i, at = i+8, at+13 {
		s, d := src[at:at+13], dst[2*i:2*i+16]
		lo := binary.LittleEndian.Uint64(s)
		hi := uint64(binary.LittleEndian.Uint32(s[8:])) | uint64(s[12])<<32
		mid := lo>>52 | hi<<12
		binary.LittleEndian.PutUint64(d, ext(lo, 0)|ext(lo, 13)<<16|ext(lo, 26)<<32|ext(lo, 39)<<48)
		binary.LittleEndian.PutUint64(d[8:], ext(mid, 0)|ext(hi, 1)<<16|ext(hi, 14)<<32|ext(hi, 27)<<48)
	}
	acc, bits := uint32(0), 0
	for ; i < n; i++ {
		for ; bits < 13; bits += 8 {
			acc, at = acc|uint32(src[at])<<bits, at+1
		}
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(int16(acc<<3)>>3))
		acc, bits = acc>>13, bits-13
	}
}

// decodeDelta is the master whose bits are bits(w) plus the int16 Δ at d.
func decodeDelta(w float32, d []byte) float32 {
	return math.Float32frombits(math.Float32bits(w) + uint32(int32(int16(binary.LittleEndian.Uint16(d)))))
}

func roundHalf(x float32) float32 { return HalfToFloat32(Float32ToHalf(x)) }

func putEscape(b []byte, i int, p float32) {
	binary.LittleEndian.PutUint32(b, uint32(i))
	binary.LittleEndian.PutUint32(b[4:], math.Float32bits(p))
}

// DeltaEncode is the codec's encoder outside the Adam walk: it installs
// P16 = fp16(p32[i]) into w (F16RoundInto) and stores each master's Δ into
// the int16 plane d, listing every escape in out as index base+i. It returns
// the number of records; out must have room for len(p32) of them, and p32
// and w must not overlap.
func DeltaEncode(d []byte, p32, w []float32, base int, out []byte) int {
	active.f16Round(w, p32)
	nesc := 0
	for i, p := range p32 {
		dl, ok := deltaOf(p, w[i])
		if !ok {
			putEscape(out[EscapeBytes*nesc:], base+i, p)
			nesc++
		}
		binary.LittleEndian.PutUint16(d[2*i:], uint16(dl))
	}
	return nesc
}

// DeltaDecode is its decoder: p32[i] = P16 + Δ from w[i] and plane d, or the
// bits of the record for index base+i. esc starts at the first record at or
// after base; records past the range end it.
func DeltaDecode(p32 []float32, d []byte, w []float32, base int, esc []byte) {
	for i := range p32 {
		p32[i] = decodeDelta(w[i], d[2*i:])
	}
	for ; len(esc) >= EscapeBytes; esc = esc[EscapeBytes:] {
		i := int(binary.LittleEndian.Uint32(esc)) - base
		if i >= len(p32) {
			return
		}
		p32[i] = loadF32(esc[4:])
	}
}

// deltaUpdate is one element of the Δ walk: Adam's update of master p, then
// the new P16 and Δ, and whether that Δ fits.
func (k *AdamCoef) deltaUpdate(p, m, v float32, g float64) (pn, mn, vn, wn float32, dl int16, ok bool) {
	pn, mn, vn = k.update(p, m, v, g)
	wn = roundHalf(pn)
	dl, ok = deltaOf(pn, wn)
	return pn, mn, vn, wn, dl, ok
}

// deltaOne updates element i of a walk from its master p through the
// reference arithmetic, storing M, V, P16 and Δ; a new Δ that does not fit
// becomes an escape record (index base+i) at out. It returns the number of
// records written, 0 or 1.
func (k *AdamCoef) deltaOne(p float32, i, base int, d, m, v []byte, grad, w []float32, out []byte) int {
	pn, mn, vn, wn, dl, ok := k.deltaUpdate(p, loadF32(m[4*i:]), loadF32(v[4*i:]), float64(grad[i]))
	storeF32(m[4*i:], mn)
	storeF32(v[4*i:], vn)
	w[i] = wn
	binary.LittleEndian.PutUint16(d[2*i:], uint16(dl))
	if ok {
		return 0
	}
	putEscape(out, base+i, pn)
	return 1
}

// AdamDelta applies one Adam update (AdamCoef.update) to n = len(grad)
// masters stored as their distance from P16, the codec folded into the
// walk. Element i's master is P32 = P16 + Δ — bits(w[i]) plus the int16 Δ[i]
// of plane d — unless esc has a record for index base+i, which then holds
// its bits. The update leaves the moments in m and v (little-endian fp32
// planes, in place), P16 = fp16(P32') in w — the install of the working
// weights — and the new Δ in d; a master whose new Δ does not fit gets an
// escape record in out instead (index base+i). It returns the number of
// records written, at most n. esc starts at the first record at or after
// base; records past the range end it. out must not overlap esc.
//
// Bit-identical at every level (a NaN keeps its class, not necessarily its
// payload, as with Adam): the vector body updates elements until a group of
// its lanes holds a master whose new Δ does not fit, leaving that group
// untouched, and this driver takes that element, and every escaped master,
// through the reference arithmetic.
func AdamDelta(k AdamCoef, base int, d, m, v []byte, grad, w []float32, esc, out []byte) int {
	n, at, nout := len(grad), 0, 0
	for at < n {
		// The walk runs up to the next escaped master, or to the end.
		stop, p := n, float32(0)
		if len(esc) >= EscapeBytes {
			if i := int(binary.LittleEndian.Uint32(esc)) - base; i < n {
				stop, p = i, loadF32(esc[4:])
				esc = esc[EscapeBytes:]
			}
		}
		for at < stop {
			at += active.adamDelta(k, d[2*at:2*stop], m[4*at:4*stop], v[4*at:4*stop], grad[at:stop], w[at:stop])
			if at < stop { // the body stopped at a master whose new Δ does not fit
				nout += k.deltaOne(decodeDelta(w[at], d[2*at:]), at, base, d, m, v, grad, w, out[EscapeBytes*nout:])
				at++
			}
		}
		if stop < n {
			nout += k.deltaOne(p, at, base, d, m, v, grad, w, out[EscapeBytes*nout:])
			at++
		}
	}
	return nout
}
