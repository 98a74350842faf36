package simd

import (
	"encoding/binary"
	"math"
)

// The Δ codec stores an fp32 master weight as its distance from P16, the
// fp16 copy of it the host already holds: Δ = bits(P32) − bits(fp16(P32)),
// as a little-endian int16. Across fp16's normal range the two patterns are
// at most 4,096 apart, so P32 = P16 + Δ is exact; a master whose distance
// does not fit 16 bits — an fp16-subnormal magnitude, a finite value that
// rounds to Inf, most NaN payloads — is an escape: its Δ is stored as 0 and
// its bits travel in an escape record instead.

// EscapeBytes is the size of one escape record: the element's index and the
// master's fp32 bits, each a little-endian uint32. A list of records is
// sorted by index.
const EscapeBytes = 8

// deltaOf is Δ = bits(p) − bits(w) and whether it fits in 16 bits; Δ is 0
// when it does not.
func deltaOf(p, w float32) (int16, bool) {
	d := int32(math.Float32bits(p) - math.Float32bits(w))
	if d != int32(int16(d)) {
		return 0, false
	}
	return int16(d), true
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
