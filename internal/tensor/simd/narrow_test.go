package simd

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestNarrowCodeAllTopBytes: for both kinds of plane and every window base
// the byte allows, every one of the 256 top bytes either has a code that the
// decoder's table maps back to it, or is a misfit, and the misfits are
// exactly the nonzero magnitudes outside the window. Fit moves the window
// to where most of a plane's values are.
func TestNarrowCodeAllTopBytes(t *testing.T) {
	for _, signed := range []bool{false, true} {
		for base := 0; base < 256; base++ {
			c := Narrow{Signed: signed, Base: uint8(base)}
			span, mask := c.span()
			if c.Valid() != (base+span-1 <= int(mask)) {
				t.Fatalf("signed=%v base %#x: Valid = %v", signed, base, c.Valid())
			}
			if !c.Valid() {
				continue
			}
			lut := c.lut()
			for b := range 256 {
				a := uint8(b) & mask
				k, ok := c.code(uint8(b))
				if want := a == 0 || (int(a) >= base && int(a) < base+span); ok != want {
					t.Fatalf("signed=%v base %#x byte %#x: fits %v, want %v", signed, base, b, ok, want)
				}
				if ok && (k > 15 || lut[k] != uint8(b)) {
					t.Fatalf("signed=%v base %#x byte %#x: code %d decodes to %#x", signed, base, b, k, lut[k])
				}
				if !ok && k != 0 {
					t.Fatalf("signed=%v base %#x byte %#x: a misfit's code is %d, want 0", signed, base, b, k)
				}
			}
		}
		// Fit slides the window to the most values, and keeps c on a tie.
		var hist [256]int
		hist[0x30], hist[0x31], hist[0x40], hist[0xb2] = 50, 50, 120, 30
		switch got := (Narrow{Signed: signed, Base: 0x20}).Fit(&hist).Base; {
		case signed && got != 0x2c: // 0x30-0x32 (0xb2's magnitude) hold 130, 0x40 120: the lowest window of the 130
			t.Fatalf("signed: Fit chose base %#x, want 0x2c", got)
		case !signed && got != 0x32: // 0x40 (120) and 0x30-0x31 (100) are 17 bytes apart: the window ending at 0x40
			t.Fatalf("unsigned: Fit chose base %#x, want 0x32", got)
		}
		if got := (Narrow{Signed: signed, Base: 0x20}).Fit(new([256]int)); got.Base != 0x20 {
			t.Fatalf("signed=%v: Fit moved the window of an empty plane to %#x", signed, got.Base)
		}
	}
}

// TestNarrowCodecLevelsMatchReference: on every level the encoder leaves the
// reference's bytes — low bytes, codes and escape records — and the decoder gives back every value bit for bit, over planes
// of moment-like values with zeros of both signs, values on both sides of the
// window, infinities and NaNs, at lengths around the 32-element body, cut into
// calls at ragged even points with their bases as the optimizer cuts a plane.
func TestNarrowCodecLevelsMatchReference(t *testing.T) {
	onEveryLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(46))
		for _, n := range []int{0, 1, 2, 3, 31, 32, 33, 63, 64, 65, 95, 96, 200, 1001} {
			for _, signed := range []bool{false, true} {
				c := Narrow{Signed: signed, Base: uint8(0x30 + rng.Intn(8))}
				src := make([]byte, 4*n)
				for i := range n {
					x := rng.Uint32()&0x00ffffff | uint32(int(c.Base)+rng.Intn(7))<<24
					switch rng.Intn(8) {
					case 0:
						x = []uint32{0, 0x80000000, 0x7f800000, 0x7fc00001, 0xff800000, 0x00000123}[rng.Intn(6)]
					case 1:
						x = rng.Uint32()
					}
					if signed && rng.Intn(2) == 0 {
						x ^= 0x80000000
					}
					binary.LittleEndian.PutUint32(src[4*i:], x)
				}
				lo, codes, out := make([]byte, 3*n), make([]byte, (n+1)/2), make([]byte, EscapeBytes*n)
				wlo, wcodes, wout := make([]byte, 3*n), make([]byte, (n+1)/2), make([]byte, EscapeBytes*n)
				wesc := narrowEncGeneric(wlo, wcodes, src, c, 0, wout)
				nesc, at := 0, 0
				for _, end := range []int{n / 3 &^ 1, n/2&^1 + 2, n} {
					if end <= at || end > n {
						continue
					}
					nesc += NarrowEncode(lo[3*at:3*end], codes[at/2:(end+1)/2], src[4*at:4*end], c, at, out[EscapeBytes*nesc:])
					at = end
				}
				if nesc != wesc || !bytes.Equal(lo, wlo) || !bytes.Equal(codes, wcodes) || !bytes.Equal(out[:EscapeBytes*nesc], wout[:EscapeBytes*wesc]) {
					t.Fatalf("n=%d signed=%v: encoder differs from the reference (%d escapes, reference %d)", n, signed, nesc, wesc)
				}
				dst := make([]byte, 4*n)
				at = 0
				esc := out[:EscapeBytes*nesc]
				for _, end := range []int{n / 3 &^ 1, n} {
					if end <= at {
						continue
					}
					for len(esc) > 0 && int(binary.LittleEndian.Uint32(esc)) < at {
						esc = esc[EscapeBytes:]
					}
					NarrowDecode(dst[4*at:4*end], lo[3*at:3*end], codes[at/2:(end+1)/2], c, at, esc)
					at = end
				}
				if !bytes.Equal(dst, src) {
					t.Fatalf("n=%d signed=%v: the plane does not decode to itself", n, signed)
				}
			}
		}
	})
}
