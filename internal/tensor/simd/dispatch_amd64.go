//go:build amd64

package simd

// archKernels is the vector sets this CPU and OS can run, lowest tier first.
func archKernels() []kernels {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7, xcr0 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	avx2 := kernels{
		tier:      tierAVX2,
		axpy:      axpyAVX2,
		dot:       dotAVX2,
		dotRow:    dotRowAVX2,
		f16Encode: f16EncodeAVX2,
		f16Decode: f16DecodeAVX2,
		f16Round:  f16RoundAVX2,
		add:       addAVX2,
		scale:     scaleAVX2,
		adam:      adamAVX2,
		adamDelta: adamDeltaAVX2,
		narrowEnc: narrowEncAVX2,
		narrowDec: narrowDecAVX2,
	}
	// The AVX-512 set is the AVX2 one but for the long rows of DotRow and,
	// through the tier, the full panels of GemmTiles.
	avx512 := avx2
	avx512.tier, avx512.dotRow = tierAVX512, dotRowAVX512
	// A tier is also the number of vector sets at or below it.
	return []kernels{avx2, avx512}[:vectorTier(maxLeaf, ecx1, ebx7, xcr0)]
}

const cpuidOSXSAVE = 1 << 27 // leaf 1 ECX: XGETBV is usable

// vectorTier is the feature gate as a function of what CPUID and XCR0
// report: the highest tier whose instructions the CPU has and whose register
// state the OS saves. The AVX2 tier needs AVX, FMA and F16C (leaf 1 ECX), AVX2
// (leaf 7 EBX) and XCR0's XMM and YMM bits; the kernels are selected as one
// set, so a machine with AVX2 but no F16C (none shipped) stays generic. The
// AVX-512 tier needs all of that, AVX512F (leaf 7 EBX bit 16) and XCR0's
// opmask and both ZMM bits — a CPU that has the instructions under an OS that
// does not save the state would fault on the first one.
func vectorTier(maxLeaf, ecx1, ebx7, xcr0 uint32) tier {
	const (
		fma     = 1 << 12
		avx     = 1 << 28
		f16c    = 1 << 29
		avx2    = 1 << 5
		avx512f = 1 << 16
		ymmOS   = 0x06 // XCR0: SSE and AVX state
		zmmOS   = 0xe6 // ... and opmask, ZMM0-15 upper halves, ZMM16-31
	)
	const leaf1 = cpuidOSXSAVE | avx | f16c | fma
	if maxLeaf < 7 || ecx1&leaf1 != leaf1 || xcr0&ymmOS != ymmOS || ebx7&avx2 == 0 {
		return tierGeneric
	}
	if ebx7&avx512f == 0 || xcr0&zmmOS != zmmOS {
		return tierAVX2
	}
	return tierAVX512
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
// caller packs nr columns of a k-block of b once — nr is GemmNR, or
// GemmNRHalf for a product's last, narrower panel — and sweeps GemmMR-row
// tiles of c over the packed rows, all of them over the whole block in one
// call, or, when the tiles need different stretches of it, a call per tile.
// Both pick their body by a static call on the selected tier, not through a
// func value like the other entry points: bp lives on the caller's stack,
// and an argument to a func value escapes to the heap. The AVX-512 tile takes
// the full panels; a half panel is one register column of the AVX2 tile, which
// computes the same bits. The pack is a copy and has one body: 512-bit moves
// measured the same.

// PackPanel copies the kc x nr panel at b (rows ldb apart) into bp as kc
// contiguous rows of nr floats; kc >= 1 and bp holds at least kc*nr.
func PackPanel(bp, b []float32, ldb, kc, nr int) {
	if active.tier == tierGeneric {
		packPanelGeneric(bp, b, ldb, kc, nr)
		return
	}
	_ = b[(kc-1)*ldb+nr-1]
	_ = bp[kc*nr-1]
	packPanelAsm(&bp[0], &b[0], ldb, kc, nr)
}

// GemmTiles computes nr columns of a matrix product for m rows, m a positive
// multiple of GemmMR, against kc packed rows of b:
//
//	c[i*ldc+j] = Σ_p a[i*ars+p*aps] · bp[p*nr+j]   p in [0, kc), kc >= 1
//
// starting from zero, or from the values already in c when accumulate is
// set (the next stretch of the same sum). a is addressed by a row stride and
// a p stride, so one kernel serves a·b (aps = 1) and aᵀ·b (ars = 1). The
// vector paths hold a tile of c in registers for its whole sweep. Every
// element is bit-identical to zeroing it and calling Axpy on its row once per
// p in increasing order: the tile does not change the arithmetic, only where
// c lives between the steps — and so the levels agree with each other.
func GemmTiles(c []float32, ldc int, a []float32, ars, aps, m int, bp []float32, nr, kc int, accumulate bool) {
	if active.tier == tierGeneric {
		gemmTilesGeneric(c, ldc, a, ars, aps, m, bp, nr, kc, accumulate)
		return
	}
	// The three extents the assembly bodies touch.
	_ = c[(m-1)*ldc+nr-1]
	_ = a[(m-1)*ars+(kc-1)*aps]
	_ = bp[kc*nr-1]
	if active.tier == tierAVX512 && nr == GemmNR {
		for i := 0; i < m; i += GemmMR {
			gemmTile512Asm(&c[i*ldc], ldc, &a[i*ars], ars, aps, &bp[0], kc, accumulate)
		}
		return
	}
	const tileM, tileN = 4, 16 // gemmTileAsm's register tile
	for i := 0; i < m; i += tileM {
		for j := 0; j < nr; j += tileN {
			gemmTileAsm(&c[i*ldc+j], ldc, &a[i*ars], ars, aps, &bp[j], nr, kc, accumulate)
		}
	}
}

// dotRowAVX2 runs whole tiles of three cells through dotTileAsm and the
// ragged last cells through dotAVX2.
func dotRowAVX2(c, a, b []float32, ldb int) {
	const tile = 3
	k := len(a)
	n := k &^ 7
	tiled := 0
	if tiles := len(c) / tile; n > 0 && tiles > 0 {
		tiled = tiles * tile
		_ = b[(tiled-1)*ldb+k-1]
		dotTileAsm(&c[0], &a[0], &b[0], ldb, n, tiles)
		dotTails(c[:tiled], a, b, ldb, n)
	}
	for j := tiled; j < len(c); j++ {
		c[j] = dotAVX2(a, b[j*ldb:j*ldb+k])
	}
}

// dotTails finishes tiled cells exactly as dotAVX2 finishes its own: the
// len(a) mod 8 elements from n on are added unfused, in order.
func dotTails(c, a, b []float32, ldb, n int) {
	k := len(a)
	if n == k {
		return
	}
	for j := range c {
		s, brow := c[j], b[j*ldb:j*ldb+k]
		for p := n; p < k; p++ {
			s += a[p] * brow[p]
		}
		c[j] = s
	}
}

// dotLongK is the row length from which the six-cell AVX-512 dot tile beats
// the three-cell AVX2 one. It issues half the instructions per element but its
// reduction (six cells, each taken apart into dotAsm's four accumulators) is
// longer, and at attention's k = head dimension the reduction is most of a
// cell: measured 0.90-0.97x at k = 32 and 48, 1.12-1.16x at 64, 1.25x at 96
// and 128, 1.35-1.5x from 192 (EXPERIMENTS.md, "An AVX-512 tier").
const dotLongK = 64

// dotRowAVX512 runs long rows through whole six-cell tiles of dotTile512Asm
// and everything else — short rows, the cells past the last whole tile —
// through dotRowAVX2: a cell is the same bits whichever body computes it.
func dotRowAVX512(c, a, b []float32, ldb int) {
	k := len(a)
	tiled := 0
	if tiles := len(c) / DotRowTile; k >= dotLongK && tiles > 0 {
		tiled = tiles * DotRowTile
		_ = b[(tiled-1)*ldb+k-1]
		dotTile512Asm(&c[0], &a[0], &b[0], ldb, k&^7, tiles)
		dotTails(c[:tiled], a, b, ldb, k&^7)
	}
	if tiled < len(c) {
		dotRowAVX2(c[tiled:], a, b[tiled*ldb:], ldb)
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

func f16RoundAVX2(dst, src []float32) {
	n := len(src) &^ 7
	if n > 0 {
		_ = dst[n-1]
		f16RoundAsm(&dst[0], &src[0], n)
	}
	f16RoundIntoGeneric(dst[n:], src[n:])
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
// the stored form of the moments, so on amd64 the Δ walk updates the planes
// of a state piece where they lie.

func adamAVX2(k AdamCoef, p, m, v, grad []float32) {
	n := len(grad) &^ 3
	if n > 0 {
		_, _, _ = p[n-1], m[n-1], v[n-1]
		adamAsm(&p[0], &m[0], &v[0], &grad[0], n, &k)
	}
	adamGeneric(k, p[n:], m[n:], v[n:], grad[n:])
}

// adamDeltaAVX2 stops where the body stops: at a group of four lanes one of
// which holds a master whose new Δ does not fit.
func adamDeltaAVX2(k AdamCoef, d, m, v []byte, grad, w []float32) int {
	n := len(grad) &^ 3
	if n > 0 {
		_, _, _, _ = d[2*n-1], m[4*n-1], v[4*n-1], w[n-1]
		if done := adamDeltaAsm(&d[0], &m[0], &v[0], &grad[0], &w[0], n, &k); done < n {
			return done
		}
	}
	return n + adamDeltaGeneric(k, d[2*n:], m[4*n:], v[4*n:], grad[n:], w[n:])
}

// The narrow codec's wrappers run the assembly over the largest multiple of
// 32 elements and the reference over the rest; an even prefix keeps the
// reference's code bytes whole.

func narrowEncAVX2(lo, codes, src []byte, c Narrow, base int, out []byte) int {
	n, nesc := len(src)/4&^31, 0
	if n > 0 {
		span, mask := c.span()
		_, _, _, _ = lo[3*n-1], codes[n/2-1], src[4*n-1], out[EscapeBytes*n-1]
		nesc = narrowEncAsm(&lo[0], &codes[0], &src[0], n, base, &out[0], int(mask)|int(c.Base)<<8|(span-1)<<16)
	}
	return nesc + narrowEncGeneric(lo[3*n:], codes[n/2:], src[4*n:], c, base+n, out[EscapeBytes*nesc:])
}

func narrowDecAVX2(dst, lo, codes []byte, lut [16]byte) {
	n := len(dst) / 4 &^ 31
	if n > 0 {
		_, _, _ = dst[4*n-1], lo[3*n-1], codes[n/2-1]
		narrowDecAsm(&dst[0], &lo[0], &codes[0], n, &lut)
	}
	narrowDecGeneric(dst[4*n:], lo[3*n:], codes[n/2:], lut)
}

// Assembly bodies (kernels_amd64.s). n is always a positive multiple of 8
// (of 4 for the Adam bodies).

//go:noescape
func axpyAsm(c, b *float32, n int, a float32)

//go:noescape
func dotAsm(a, b *float32, n int) float32

//go:noescape
func packPanelAsm(dst, src *float32, ld, kc, nr int)

//go:noescape
func gemmTileAsm(c *float32, ldc int, a *float32, ars, aps int, bp *float32, bps, kc int, acc bool)

//go:noescape
func dotTileAsm(out, a, b *float32, ldb, n, tiles int)

//go:noescape
func gemmTile512Asm(c *float32, ldc int, a *float32, ars, aps int, bp *float32, kc int, acc bool)

//go:noescape
func dotTile512Asm(out, a, b *float32, ldb, n, tiles int)

//go:noescape
func f16EncAsm(dst *byte, src *float32, n int)

//go:noescape
func f16DecAsm(dst *float32, src *byte, n int)

//go:noescape
func f16RoundAsm(dst, src *float32, n int)

//go:noescape
func addAsm(a, b *float32, n int)

//go:noescape
func scaleAsm(d *float32, n int, s float32)

//go:noescape
func adamAsm(p, m, v, grad *float32, n int, k *AdamCoef)

//go:noescape
func adamDeltaAsm(d, m, v *byte, grad, w *float32, n int, k *AdamCoef) int

//go:noescape
func narrowEncAsm(lo, codes, src *byte, n, base int, out *byte, c int) (nesc int)

//go:noescape
func narrowDecAsm(dst, lo, codes *byte, n int, lut *[16]byte)

// fmaPeakAsm and fmaPeak512Asm run iters rounds of twelve independent FMA
// chains on ymm and zmm registers: BenchmarkFMAPeak's measured ceiling.
func fmaPeakAsm(iters int)

func fmaPeak512Asm(iters int)

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbv() (eax, edx uint32)
