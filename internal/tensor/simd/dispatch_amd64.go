//go:build amd64

package simd

// archAvailable checks CPUID for AVX2 + FMA + F16C and XGETBV for OS
// YMM-state support — the full feature set the assembly kernels assume.
// The kernels are selected as one tier: a machine with AVX2 but no F16C
// (none shipped) would fall back to generic entirely.
func archAvailable() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	const f16c = 1 << 29
	const fma = 1 << 12
	if ecx1&(osxsave|avx|f16c|fma) != osxsave|avx|f16c|fma {
		return false
	}
	// OS must save/restore XMM and YMM state.
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// archKernels is the AVX2 kernel set.
func archKernels() kernels {
	return kernels{
		level:     "avx2-fma-f16c",
		axpy:      axpyAVX2,
		dot:       dotAVX2,
		dotRow:    dotRowAVX2,
		f16Encode: f16EncodeAVX2,
		f16Decode: f16DecodeAVX2,
		f16Round:  f16RoundAVX2,
		add:       addAVX2,
		scale:     scaleAVX2,
		adam:      adamAVX2,
		adamWire:  adamWireAVX2,
	}
}

// The AVX2 wrappers run the 8-lane assembly body over the largest
// multiple-of-8 prefix and finish the tail with the scalar reference ops,
// so every element's treatment is a pure function of its index: results
// are deterministic for any length and identical whichever worker runs
// the chunk. For the bit-exact kernels (codec, add, scale) the scalar
// tail is bit-identical to the generic path by construction; for the
// FMA kernels (axpy, dot) the tail uses unfused multiply-add, which the
// tolerance tests cover.

func axpyAVX2(c, b []float32, a float32) {
	n := len(c) &^ 7
	if n > 0 {
		axpyAsm(&c[0], &b[0], n, a)
	}
	for j := n; j < len(c); j++ {
		c[j] += a * b[j]
	}
}

func dotAVX2(a, b []float32) float32 {
	n := len(a) &^ 7
	var s float32
	if n > 0 {
		s = dotAsm(&a[0], &b[0], n)
	}
	for p := n; p < len(a); p++ {
		s += a[p] * b[p]
	}
	return s
}

// PackPanel and GemmTiles are the two halves of a GEMM column panel: the
// caller packs GemmNR columns of a k-block of b once and sweeps GemmMR-row
// tiles of c over the packed rows — all of them over the whole block in one
// call, or, when the tiles need different stretches of it, a call per tile.
// Both pick their body by a static call on the selected set, not through a
// func value like the other entry points: bp lives on the caller's stack,
// and an argument to a func value escapes to the heap.

// PackPanel copies the kc x GemmNR panel at b (rows ldb apart) into bp as kc
// contiguous rows of GemmNR floats; kc >= 1 and bp holds at least kc*GemmNR.
func PackPanel(bp, b []float32, ldb, kc int) {
	if !Active() {
		PackPanelGeneric(bp, b, ldb, kc)
		return
	}
	_ = b[(kc-1)*ldb+GemmNR-1]
	_ = bp[kc*GemmNR-1]
	packPanelAsm(&bp[0], &b[0], ldb, kc)
}

// GemmTiles computes GemmNR columns of a matrix product for m rows, m a
// positive multiple of GemmMR, against kc packed rows of b:
//
//	c[i*ldc+j] = Σ_p a[i*ars+p*aps] · bp[p*GemmNR+j]   p in [0, kc), kc >= 1
//
// starting from zero, or from the values already in c when accumulate is
// set (the next stretch of the same sum). a is addressed by a row stride and
// a p stride, so one kernel serves a·b (aps = 1) and aᵀ·b (ars = 1). The
// vector path holds each GemmMR x GemmNR tile of c in registers for its
// whole sweep. Every element is bit-identical to zeroing it and calling Axpy
// on its row once per p in increasing order: the tile does not change the
// arithmetic, only where c lives between the steps.
func GemmTiles(c []float32, ldc int, a []float32, ars, aps, m int, bp []float32, kc int, accumulate bool) {
	if !Active() {
		GemmTilesGeneric(c, ldc, a, ars, aps, m, bp, kc, accumulate)
		return
	}
	// The three extents the assembly body touches.
	_ = c[(m-1)*ldc+GemmNR-1]
	_ = a[(m-1)*ars+(kc-1)*aps]
	_ = bp[kc*GemmNR-1]
	for i := 0; i < m; i += GemmMR {
		gemmTileAsm(&c[i*ldc], ldc, &a[i*ars], ars, aps, &bp[0], kc, accumulate)
	}
}

// dotRowAVX2 runs whole tiles of cells through dotTileAsm and the ragged
// last cells through dotAVX2. A tiled cell is finished exactly as dotAVX2
// finishes its own: the len(a) mod 8 tail is added unfused, in order.
func dotRowAVX2(c, a, b []float32, ldb int) {
	k := len(a)
	n := k &^ 7
	tiled := 0
	if tiles := len(c) / DotRowTile; n > 0 && tiles > 0 {
		tiled = tiles * DotRowTile
		_ = b[(tiled-1)*ldb+k-1]
		dotTileAsm(&c[0], &a[0], &b[0], ldb, n, tiles)
		if n < k {
			for j := 0; j < tiled; j++ {
				s, brow := c[j], b[j*ldb:j*ldb+k]
				for p := n; p < k; p++ {
					s += a[p] * brow[p]
				}
				c[j] = s
			}
		}
	}
	for j := tiled; j < len(c); j++ {
		c[j] = dotAVX2(a, b[j*ldb:j*ldb+k])
	}
}

func f16EncodeAVX2(dst []byte, src []float32) {
	n := len(src) &^ 7
	if n > 0 {
		f16EncAsm(&dst[0], &src[0], n)
	}
	for i := n; i < len(src); i++ {
		h := Float32ToHalf(src[i])
		dst[2*i] = byte(h)
		dst[2*i+1] = byte(h >> 8)
	}
}

func f16DecodeAVX2(dst []float32, src []byte) {
	n := len(dst) &^ 7
	if n > 0 {
		f16DecAsm(&dst[0], &src[0], n)
	}
	for i := n; i < len(dst); i++ {
		dst[i] = HalfToFloat32(uint16(src[2*i]) | uint16(src[2*i+1])<<8)
	}
}

func f16RoundAVX2(d []float32) {
	n := len(d) &^ 7
	if n > 0 {
		f16RoundAsm(&d[0], n)
	}
	for i := n; i < len(d); i++ {
		d[i] = HalfToFloat32(Float32ToHalf(d[i]))
	}
}

func addAVX2(a, b []float32) {
	n := len(a) &^ 7
	if n > 0 {
		addAsm(&a[0], &b[0], n)
	}
	for i := n; i < len(a); i++ {
		a[i] += b[i]
	}
}

func scaleAVX2(d []float32, s float32) {
	n := len(d) &^ 7
	if n > 0 {
		scaleAsm(&d[0], n, s)
	}
	for i := n; i < len(d); i++ {
		d[i] *= s
	}
}

// The Adam wrappers run the 4-lane float64 body over the largest
// multiple-of-4 prefix and the reference over the rest. Little-endian fp32 is
// the wire form, so on amd64 the planes of a state object are updated where
// they lie; decoded slices enter the same body through a float32-typed alias
// of its symbol, with the masters' second destination pointed at p itself.

func adamAVX2(k AdamCoef, p, m, v, grad []float32) {
	n := len(grad) &^ 3
	if n > 0 {
		_, _, _ = p[n-1], m[n-1], v[n-1]
		adamSliceAsm(&p[0], &m[0], &v[0], &grad[0], &p[0], n, &k)
	}
	AdamGeneric(k, p[n:], m[n:], v[n:], grad[n:])
}

func adamWireAVX2(k AdamCoef, p, m, v []byte, grad, out []float32) {
	n := len(grad) &^ 3
	if n > 0 {
		_, _, _, _ = p[4*n-1], m[4*n-1], v[4*n-1], out[n-1]
		adamAsm(&p[0], &m[0], &v[0], &grad[0], &out[0], n, &k)
	}
	AdamWireGeneric(k, p[4*n:], m[4*n:], v[4*n:], grad[n:], out[n:])
}

// Assembly bodies (kernels_amd64.s). n is always a positive multiple of 8
// (of 4 for the Adam body).

//go:noescape
func axpyAsm(c, b *float32, n int, a float32)

//go:noescape
func dotAsm(a, b *float32, n int) float32

//go:noescape
func packPanelAsm(dst, src *float32, ld, kc int)

//go:noescape
func gemmTileAsm(c *float32, ldc int, a *float32, ars, aps int, bp *float32, kc int, acc bool)

//go:noescape
func dotTileAsm(out, a, b *float32, ldb, n, tiles int)

//go:noescape
func f16EncAsm(dst *byte, src *float32, n int)

//go:noescape
func f16DecAsm(dst *float32, src *byte, n int)

//go:noescape
func f16RoundAsm(d *float32, n int)

//go:noescape
func addAsm(a, b *float32, n int)

//go:noescape
func scaleAsm(d *float32, n int, s float32)

//go:noescape
func adamAsm(p, m, v *byte, grad, out *float32, n int, k *AdamCoef)

//go:noescape
func adamSliceAsm(p, m, v, grad, out *float32, n int, k *AdamCoef)

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbv() (eax, edx uint32)
