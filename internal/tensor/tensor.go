// Package tensor is the minimal dense-tensor library under the real
// training engine: row-major float32 storage, the operations a transformer
// needs, and IEEE-754 half-precision round-tripping so the engine's
// offloaded tensors occupy exactly the 2 bytes/element the paper's A16/P16/
// G16 accounting assumes.
//
// The matmuls are cache-blocked and run on the shared worker pool
// (internal/tensor/pool), sharding only independent outputs — column panels
// and rows — never reductions. Each output element is therefore produced by
// exactly one goroutine with the same per-element arithmetic as the serial
// kernel, so results are bit-identical across thread counts and runs: the
// engine's correctness suite still compares runs bit-for-bit. Parallelism is
// sized by runtime.GOMAXPROCS and adjustable via SetParallelism; small
// products fall back to the serial path and pay no scheduling overhead. The
// element-wise kernels run inline on the caller (see AddInPlace).
//
// Inner loops dispatch through internal/tensor/simd: AVX2/FMA/F16C
// microkernels when the CPU supports them, with AVX-512 bodies for the two
// FMA-bound tiles where it has those too (RATEL_NOSIMD=1 pins the portable
// reference). The three matmuls run on register-tiled kernels there —
// MatMul and TMatMul on an 8x32 GEMM tile over packed column panels of b,
// MatMulT on a tile of three or six dot products — which are bit-identical
// to the BLAS-1 formulation they replaced (one simd.Axpy per row and p, one
// simd.Dot per cell) and still fall back to it on ragged edges and on the
// generic path. The fp16 codec and element-wise kernels are bit-identical
// to the reference on every path; the matmul family uses FMA on the vector
// paths, which changes rounding versus the scalar reference — the same bits
// on every vector level and at any thread count, but not bit-portable
// between a vector machine and a generic one (DESIGN.md §11). The matmul blocking
// is fixed (constants sized to L1); nothing here is tunable.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ratel/internal/tensor/pool"
	"ratel/internal/tensor/simd"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, Numel(shape...))}
}

// FromData wraps data (not copied) with a shape.
func FromData(data []float32, shape ...int) (*Tensor, error) {
	if len(data) != Numel(shape...) {
		return nil, fmt.Errorf("tensor: %d values for shape %v", len(data), shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}, nil
}

// Numel is the element count of a shape.
func Numel(shape ...int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Numel is the tensor's element count.
func (t *Tensor) Numel() int { return len(t.Data) }

// Clone deep-copies t onto the heap.
func (t *Tensor) Clone() *Tensor { return (*Arena)(nil).Clone(t) }

// Zero clears t in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Dims2 returns the shape of a rank-2 tensor.
func (t *Tensor) Dims2() (rows, cols int, err error) {
	if len(t.Shape) != 2 {
		return 0, 0, fmt.Errorf("tensor: rank %d, want 2", len(t.Shape))
	}
	return t.Shape[0], t.Shape[1], nil
}

// RandInit fills t with a deterministic scaled normal initialization.
func (t *Tensor) RandInit(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// MatMul computes c = a·b for rank-2 tensors [m,k]x[k,n] into a tensor from
// ar (nil: the heap), like MatMulT, TMatMul, GELU and GELUBackward below.
//
// Column panels of c are sharded across the worker pool; every element
// accumulates in increasing p regardless of blocking or thread count, so
// the result is bit-identical to the serial kernel. Zero entries of a are
// NOT skipped: 0·NaN and 0·Inf must propagate as NaN.
func MatMul(ar *Arena, a, b *Tensor) (*Tensor, error) {
	m, _, err := a.Dims2()
	if err != nil {
		return nil, err
	}
	_, n, err := b.Dims2()
	if err != nil {
		return nil, err
	}
	c := ar.New(m, n)
	if err := MatMulInto(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// MatMulInto computes c = a·b into the caller-owned c, which must already
// have shape [m,n]. c is fully overwritten (zeroed, then accumulated), so a
// dirty reused buffer yields the same bits as a fresh one — the in-place
// counterpart of MatMul for scratch-reusing callers.
func MatMulInto(c, a, b *Tensor) error {
	m, k, err := a.Dims2()
	if err != nil {
		return err
	}
	k2, n, err := b.Dims2()
	if err != nil {
		return err
	}
	if k != k2 {
		return fmt.Errorf("tensor: matmul inner dims %d vs %d", k, k2)
	}
	if err := checkDst(c, m, n, "matmul"); err != nil {
		return err
	}
	gemm(product{m: m, k: k, n: n, ldc: n, ars: k, aps: 1, ldb: n}, c.Data, a.Data, b.Data)
	return nil
}

// View is a rank-2 window onto row-major storage: Rows x Cols elements, row i
// at Data[i*Stride : i*Stride+Cols]. The view products below read and write
// operands where they lie — one head's columns of a [tokens, 3d] activation,
// a head's columns of the context — instead of through gathered copies.
type View struct {
	Data               []float32
	Rows, Cols, Stride int
}

// Window is rows [row0, row0+rows) x columns [col0, col0+cols) of the rank-2
// tensor t as a View sharing its storage. Like a slice expression it panics
// when the window does not lie inside t.
func (t *Tensor) Window(row0, rows, col0, cols int) View {
	if len(t.Shape) != 2 || row0 < 0 || rows < 0 || col0 < 0 || cols < 0 || row0+rows > t.Shape[0] || col0+cols > t.Shape[1] {
		panic(fmt.Sprintf("tensor: window rows [%d,+%d) cols [%d,+%d) of shape %v", row0, rows, col0, cols, t.Shape))
	}
	return View{Data: t.Data[row0*t.Shape[1]+col0:], Rows: rows, Cols: cols, Stride: t.Shape[1]}
}

// View is the whole of the rank-2 tensor t as a window.
func (t *Tensor) View() View { return t.Window(0, t.Shape[0], 0, t.Shape[1]) }

// checkViews validates the operands of a view product: each window must lie
// inside its storage, and with lower set the product's triangular matrix tri
// must be square.
func checkViews(op string, lower bool, tri View, vs ...View) error {
	for _, v := range vs {
		if v.Rows < 0 || v.Cols < 0 || v.Stride < v.Cols || (v.Rows > 0 && len(v.Data) < (v.Rows-1)*v.Stride+v.Cols) {
			return fmt.Errorf("tensor: %s: view %dx%d stride %d over %d values", op, v.Rows, v.Cols, v.Stride, len(v.Data))
		}
	}
	if lower && tri.Rows != tri.Cols {
		return fmt.Errorf("tensor: %s: lower-triangular operand is %dx%d, want square", op, tri.Rows, tri.Cols)
	}
	return nil
}

// The view products are the three matmuls on windows, with one addition:
// lower declares that the product's square matrix — a for MatMulView and
// TMatMulView, c for MatMulTView — is lower-triangular BY CONSTRUCTION (a
// causal attention matrix), and the kernels then leave its upper triangle
// alone. For a, the terms whose coefficient lies above the diagonal are
// skipped; the caller guarantees those elements hold +0 (the tiles still
// read the few next to the diagonal). For c, only cells on and below the
// diagonal are computed and written. Every element that is computed is the
// same chain as in the full product, and skipping a +0 coefficient leaves a
// chain unchanged when the other factor is finite, so on finite data the
// result is bit-identical to the full product (DESIGN.md §11, "exact by
// structure"). The skip is decided by index, never by value: a zero that
// merely happens to be there is multiplied like any other number, and the
// plain matmuls skip nothing. c must not overlap a or b.

// MatMulView computes c = a·b for a [m,k], b [k,n], c [m,n]. With lower, a
// is square lower-triangular and row i sums p <= i only.
func MatMulView(c, a, b View, lower bool) error {
	if err := checkViews("matmul", lower, a, c, a, b); err != nil {
		return err
	}
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("tensor: matmul views %dx%d = %dx%d · %dx%d", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	gemm(product{m: a.Rows, k: a.Cols, n: b.Cols, ldc: c.Stride, ars: a.Stride, aps: 1, ldb: b.Stride, tri: trailingZeros.when(lower)}, c.Data, a.Data, b.Data)
	return nil
}

// TMatMulView computes c = aᵀ·b for a [k,m], b [k,n], c [m,n]. With lower, a
// is square lower-triangular as stored, so aᵀ is upper-triangular and row i
// sums p >= i only.
func TMatMulView(c, a, b View, lower bool) error {
	if err := checkViews("tmatmul", lower, a, c, a, b); err != nil {
		return err
	}
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		return fmt.Errorf("tensor: tmatmul views %dx%d = (%dx%d)ᵀ · %dx%d", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	gemm(product{m: a.Cols, k: a.Rows, n: b.Cols, ldc: c.Stride, ars: 1, aps: a.Stride, ldb: b.Stride, tri: leadingZeros.when(lower)}, c.Data, a.Data, b.Data)
	return nil
}

// MatMulTView computes c = a·bᵀ for a [m,k], b [n,k], c [m,n]. With lower, c
// is square and only its cells j <= i are computed; the rest of c is not
// touched.
func MatMulTView(c, a, b View, lower bool) error {
	if err := checkViews("matmulT", lower, c, c, a, b); err != nil {
		return err
	}
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		return fmt.Errorf("tensor: matmulT views %dx%d = %dx%d · (%dx%d)ᵀ", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	dotRows(product{m: a.Rows, k: a.Cols, n: b.Rows, ldc: c.Stride, ars: a.Stride, aps: 1, ldb: b.Stride, tri: trailingZeros.when(lower)}, c.Data, a.Data, b.Data)
	return nil
}

// The GEMM driver under MatMul and TMatMul, contiguous or on views. Both are
//
//	c[i*ldc+j] = Σ_p a[i*ars+p*aps] · b[p*ldb+j]
//
// with (ars, aps) = (row stride, 1) for a·b and (1, row stride) for aᵀ·b,
// and every element is one chain: from zero, one fused multiply-add per p in
// increasing p (unfused in the n mod 8 tail columns and on the generic path)
// — what simd.Axpy does to the element's row when called once per p. The
// driver chooses only where c lives between the steps, and, for a triangular
// a, which p a row visits at all.
//
// With the vector kernels active, a column panel of b (gemmKC x simd.GemmNR)
// is packed into a contiguous stack buffer — weights with a 4 KiB row stride
// would otherwise put every row of the panel in the same cache set — and
// every full simd.GemmMR-row tile of the panel runs through the tile kernel
// (simd.GemmTiles), which keeps the tile of c in registers across its part of
// the k-block. A product's last panel may be the half-width one, so whatever
// columns fill a half panel are tiled (attention's 16-wide heads). The rows
// and columns that fill neither go through gemmEdge, the Axpy loops on
// sub-slices: every panel boundary is a multiple of 8, so a column is fused
// or not as Axpy alone would have it. With the vector kernels inactive
// nothing fills a tile: the whole product is edge and runs the row loops as
// it always has.

// product is one matrix product's geometry, shared by the GEMM driver and
// the dot-product driver (dotRows, where b is [n,k], aps is 1 and tri is c's
// shape rather than a's).
type product struct {
	m, k, n            int // c is [m,n]; every element sums over k
	ldc, ars, aps, ldb int // row stride of c, row and p strides of a, row stride of b
	tri                triangle
}

// triangle is the structural zero pattern of the square a of a product: which
// coefficients a[i,p] are zero by construction, as a function of (i, p) alone.
type triangle int8

const (
	noZeros       triangle = iota
	trailingZeros          // a[i,p] = +0 for p > i: a lower-triangular a
	leadingZeros           // a[i,p] = +0 for p < i: a lower-triangular matrix read transposed
)

// when is t if the caller declared its matrix triangular, noZeros otherwise.
func (t triangle) when(declared bool) triangle {
	if declared {
		return t
	}
	return noZeros
}

// work is the product's multiply-add count, the pool's cost estimate: half
// the square's when a triangle is skipped.
func (g product) work() int64 {
	w := int64(g.m) * int64(g.k) * int64(g.n)
	if g.tri != noZeros {
		w /= 2
	}
	return w
}

// span is the range of p that rows [i0,i1) of the product visit: all of
// [0,k) but the part where every one of those rows has a structural zero.
func (g product) span(i0, i1 int) (lo, hi int) {
	switch g.tri {
	case trailingZeros:
		return 0, i1
	case leadingZeros:
		return i0, g.k
	}
	return 0, g.k
}

// gemmKC is the depth of a packed panel: gemmKC x simd.GemmNR floats are
// 32 KiB, two thirds of a 48 KiB L1 next to the streaming rows of a. 128, 192
// and 256 were measured on both vector levels at the engine's shapes: 256 was
// best or tied on every one (a shallower block reloads and stores each tile of
// c more often), by 1-10 % over 128. Deeper products continue the chains block
// by block, which rounds nothing. gemmKCShallow is the depth class of the
// products that are too small to pay for zeroing a buffer of that size.
const (
	gemmKC        = 256
	gemmKCShallow = 64
)

// gemm computes c[m,n] from the strided a and b [k,n], sharding column
// panels across the pool: a panel is packed by exactly one participant, and
// each element still has one owner and one chain, so the result is
// bit-identical at any thread count.
func gemm(g product, cd, ad, bd []float32) {
	work := g.work()
	if pool.InlineWork(work) {
		gemmCols(g, cd, ad, bd, 0, g.n)
		return
	}
	panels := (g.n + simd.GemmNR - 1) / simd.GemmNR
	pool.ForWork(panels, 1, work, func(lo, hi int) {
		gemmCols(g, cd, ad, bd, lo*simd.GemmNR, min(hi*simd.GemmNR, g.n))
	})
}

// gemmCols computes columns [j0,j1) of c: tiles where rows and columns fill
// them (whole panels, then at most one half panel), edges elsewhere. Named rather than a closure so the serial path
// allocates nothing.
func gemmCols(g product, cd, ad, bd []float32, j0, j1 int) {
	mt, jt := 0, j0 // tiles cover rows [0,mt) of columns [j0,jt)
	if simd.Active() && g.m >= simd.GemmMR && g.k > 0 {
		mt = g.m - g.m%simd.GemmMR
		jt = j1 - (j1-j0)%simd.GemmNRHalf
	}
	if jt > j0 {
		gemmTiles(g, cd, ad, bd, mt, j0, jt)
	}
	gemmEdge(g, cd, ad, bd, mt, g.m, j0, jt)
	gemmEdge(g, cd, ad, bd, 0, g.m, jt, j1)
}

// gemmTiles computes rows [0,mt) x columns [j0,jt) of c, both whole numbers
// of tiles (the last panel possibly the half one), through a packed-panel
// buffer on its stack. A Go variable is zeroed where it is declared, and
// zeroing the full buffer is a tenth of a product as small as an attention
// head's (64 x 64 x 16 is two microseconds of tile work): a product no deeper
// than gemmKCShallow declares a buffer of that depth instead.
func gemmTiles(g product, cd, ad, bd []float32, mt, j0, jt int) {
	if g.k <= gemmKCShallow {
		var bp [gemmKCShallow * simd.GemmNR]float32
		gemmPanels(g, bp[:], cd, ad, bd, mt, j0, jt)
		return
	}
	var bp [gemmKC * simd.GemmNR]float32
	gemmPanels(g, bp[:], cd, ad, bd, mt, j0, jt)
}

// gemmPanels is gemmTiles on the buffer it was given, deep enough for
// min(g.k, gemmKC) packed rows. Per column panel and k-block it packs the
// panel of b once and sweeps the row tiles over it, each over the part of
// its span that lies in the block: a tile starts from zero in the block
// where its span starts and continues its chains in the later ones. Without
// structural zeros every tile's span is the whole of k and one call sweeps
// them all; with them each tile has its own stretch of the block and its own
// call (the per-call cost is 2–8 % of a Linear-sized product, which is why
// the plain matmuls do not pay it).
func gemmPanels(g product, bp, cd, ad, bd []float32, mt, j0, jt int) {
	rows := simd.GemmMR // rows that share a span, hence a call
	if g.tri == noZeros {
		rows = mt
	}
	for j := j0; j < jt; j += simd.GemmNR {
		nr := min(simd.GemmNR, jt-j) // the last panel may be the half one
		for p0 := 0; p0 < g.k; p0 += gemmKC {
			p1 := min(p0+gemmKC, g.k)
			simd.PackPanel(bp, bd[p0*g.ldb+j:], g.ldb, p1-p0, nr)
			for i := 0; i < mt; i += rows {
				lo, hi := g.span(i, i+rows)
				q0, q1 := max(lo, p0), min(hi, p1)
				if q0 < q1 {
					simd.GemmTiles(cd[i*g.ldc+j:], g.ldc, ad[i*g.ars+q0*g.aps:], g.ars, g.aps, rows, bp[(q0-p0)*nr:], nr, q1-q0, q0 > lo)
				}
			}
		}
	}
}

// gemmEdge computes rows [i0,i1) x columns [j0,j1) of c the way the whole
// product was computed before the tile existed: zero, then one simd.Axpy
// per (i,p) in increasing p over the row's span, a gemmKC-row block of b at a
// time so the block stays cache-resident while the rows sweep it. It is the
// ragged-edge path and the whole of the generic path.
func gemmEdge(g product, cd, ad, bd []float32, i0, i1, j0, j1 int) {
	if i0 >= i1 || j0 >= j1 {
		return
	}
	for i := i0; i < i1; i++ {
		clear(cd[i*g.ldc+j0 : i*g.ldc+j1])
	}
	for p0 := 0; p0 < g.k; p0 += gemmKC {
		p1 := min(p0+gemmKC, g.k)
		for i := i0; i < i1; i++ {
			lo, hi := g.span(i, i+1)
			crow := cd[i*g.ldc+j0 : i*g.ldc+j1]
			for p := max(lo, p0); p < min(hi, p1); p++ {
				simd.Axpy(crow, bd[p*g.ldb+j0:p*g.ldb+j1], ad[i*g.ars+p*g.aps])
			}
		}
	}
}

// MatMulT computes c = a·bᵀ for [m,k]x[n,k].
//
// Rows of c are sharded across the pool; each dot product accumulates in
// increasing p exactly as the serial kernel does, so the result is
// bit-identical at any thread count.
func MatMulT(ar *Arena, a, b *Tensor) (*Tensor, error) {
	m, _, err := a.Dims2()
	if err != nil {
		return nil, err
	}
	n, _, err := b.Dims2()
	if err != nil {
		return nil, err
	}
	c := ar.New(m, n)
	if err := MatMulTInto(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// MatMulTInto computes c = a·bᵀ into the caller-owned c [m,n]. Every cell
// is written (no accumulation), so reused buffers need no zeroing and the
// bits match MatMulT exactly.
func MatMulTInto(c, a, b *Tensor) error {
	m, k, err := a.Dims2()
	if err != nil {
		return err
	}
	n, k2, err := b.Dims2()
	if err != nil {
		return err
	}
	if k != k2 {
		return fmt.Errorf("tensor: matmulT inner dims %d vs %d", k, k2)
	}
	if err := checkDst(c, m, n, "matmulT"); err != nil {
		return err
	}
	dotRows(product{m: m, k: k, n: n, ldc: n, ars: k, aps: 1, ldb: k}, c.Data, a.Data, b.Data)
	return nil
}

// dotRows is the driver under MatMulT, contiguous or on views: every cell of
// c = a·bᵀ it computes is one simd.Dot of a row of a and a row of b, and the
// rows of c are sharded across the pool.
func dotRows(g product, cd, ad, bd []float32) {
	work := g.work()
	if pool.InlineWork(work) {
		dotPanel(g, cd, ad, bd, 0, g.m)
		return
	}
	pool.ForWork(g.m, 1, work, func(lo, hi int) { dotPanel(g, cd, ad, bd, lo, hi) })
}

// dotPanelFloats is how much of b dotPanel keeps hot: the rows of b one
// sweep of a's rows reuses add up to at most 24 KiB, so they stay in L1
// whatever k is (a fixed row count cannot: 16 rows fit at k = 256 and are
// 64 KiB at k = 1024). The count is a multiple of simd.DotRowTile, so only
// the last panel has ragged cells.
const dotPanelFloats = 6144

// dotPanel computes rows [lo,hi) of c = a·bᵀ: one simd.DotRow per row of a
// and panel of b rows, writing every cell — or, for a lower-triangular c,
// every cell up to the diagonal (how a row's cells group into tiles does not
// change a cell: each is the Dot of its two rows).
func dotPanel(g product, cd, ad, bd []float32, lo, hi int) {
	jBlock := max(dotPanelFloats/max(g.k, 1)/simd.DotRowTile, 1) * simd.DotRowTile
	for j0 := 0; j0 < g.n; j0 += jBlock {
		for i := lo; i < hi; i++ {
			j1 := min(j0+jBlock, g.n)
			if g.tri == trailingZeros {
				j1 = min(j1, i+1)
			}
			if j0 < j1 {
				simd.DotRow(cd[i*g.ldc+j0:i*g.ldc+j1], ad[i*g.ars:i*g.ars+g.k], bd[j0*g.ldb:], g.ldb)
			}
		}
	}
}

// TMatMul computes c = aᵀ·b for [k,m]x[k,n].
//
// The same GEMM driver as MatMul with a read by columns: column panels of c
// are sharded across the pool and every element accumulates in increasing
// p — the serial order — so the result is bit-identical at any thread
// count. Zero entries of a are NOT skipped (NaN/Inf propagation).
func TMatMul(ar *Arena, a, b *Tensor) (*Tensor, error) {
	_, m, err := a.Dims2()
	if err != nil {
		return nil, err
	}
	_, n, err := b.Dims2()
	if err != nil {
		return nil, err
	}
	c := ar.New(m, n)
	if err := TMatMulInto(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// TMatMulInto computes c = aᵀ·b into the caller-owned c [m,n]. c is fully
// overwritten (zeroed, then accumulated), so dirty reused buffers are safe.
func TMatMulInto(c, a, b *Tensor) error {
	k, m, err := a.Dims2()
	if err != nil {
		return err
	}
	k2, n, err := b.Dims2()
	if err != nil {
		return err
	}
	if k != k2 {
		return fmt.Errorf("tensor: tmatmul inner dims %d vs %d", k, k2)
	}
	if err := checkDst(c, m, n, "tmatmul"); err != nil {
		return err
	}
	gemm(product{m: m, k: k, n: n, ldc: n, ars: 1, aps: m, ldb: n}, c.Data, a.Data, b.Data)
	return nil
}

// checkDst validates that a caller-owned destination has the exact rank-2
// shape an Into kernel is about to write.
func checkDst(c *Tensor, m, n int, op string) error {
	cm, cn, err := c.Dims2()
	if err != nil {
		return err
	}
	if cm != m || cn != n {
		return fmt.Errorf("tensor: %s dst %dx%d, want %dx%d", op, cm, cn, m, n)
	}
	return nil
}

// The element-wise kernels below (add, bias, scale, and the fp16 rounds in
// half.go) run inline on the caller, like the byte codecs and GELU: they
// stream memory, and at every workload's shapes two threads lost to one
// (EXPERIMENTS.md, "Element-wise kernels run inline").

// AddInPlace computes a += b elementwise.
func AddInPlace(a, b *Tensor) error {
	if len(a.Data) != len(b.Data) {
		return fmt.Errorf("tensor: add size %d vs %d", len(a.Data), len(b.Data))
	}
	simd.Add(a.Data, b.Data)
	return nil
}

// AddBias adds bias (length n) to each row of x [m,n].
func AddBias(x, bias *Tensor) error {
	m, n, err := x.Dims2()
	if err != nil {
		return err
	}
	if len(bias.Data) != n {
		return fmt.Errorf("tensor: bias length %d for %d columns", len(bias.Data), n)
	}
	for i := 0; i < m; i++ {
		simd.Add(x.Data[i*n:(i+1)*n], bias.Data)
	}
	return nil
}

// Scale multiplies t by s in place.
func (t *Tensor) Scale(s float32) { simd.Scale(t.Data, s) }

// GELU applies the tanh-approximated GELU elementwise, returning a new
// tensor. An element is one table load (see geluTab), so the loop streams
// memory and runs inline on the caller like the byte codecs: at the largest
// engine shape (256 x 1024) two threads did not beat it, and at the next
// (128 x 512) they lost to it (EXPERIMENTS.md, "GELU as a table").
func GELU(ar *Arena, x *Tensor) *Tensor {
	geluTab.once.Do(buildGELUTab)
	y := ar.New(x.Shape...)
	xd := x.Data
	yd := y.Data[:len(xd)] // equal lengths, stated for the bounds checker
	for i, v := range xd {
		if h, ok := normalHalf(v); ok {
			yd[i] = geluTab.y[h]
		} else {
			yd[i] = geluScalar(v)
		}
	}
	return y
}

// GELUBackward computes dx = dy * gelu'(x), inline like GELU.
func GELUBackward(ar *Arena, x, dy *Tensor) (*Tensor, error) {
	if len(x.Data) != len(dy.Data) {
		return nil, fmt.Errorf("tensor: gelu backward size %d vs %d", len(x.Data), len(dy.Data))
	}
	geluTab.once.Do(buildGELUTab)
	dx := ar.New(x.Shape...)
	xd := x.Data
	dyd, dxd := dy.Data[:len(xd)], dx.Data[:len(xd)]
	for i, v := range xd {
		if h, ok := normalHalf(v); ok {
			dxd[i] = dyd[i] * geluTab.dy[h]
		} else {
			dxd[i] = dyd[i] * geluGradScalar(v)
		}
	}
	return dx, nil
}

// geluTab holds gelu and gelu' at every binary16 value, indexed by the bit
// pattern. The engine's GELU inputs are on the fp16 grid (nn rounds every
// forward tensor onto it), so the function has 65,536 possible arguments
// and each is evaluated once, by the scalar formulas below: a lookup returns
// the bits the formula would, on every path and at any thread count
// (DESIGN.md §11, "exact by enumeration"). An element normalHalf turns away
// — the grid switched off in the gradient checks, a NaN, a stray zero — is
// evaluated by the formula directly, so the 4,096 entries of the zeros,
// subnormals and non-finite values are filled but never read. 512 KiB,
// filled on first use.
var geluTab struct {
	once  sync.Once
	y, dy [1 << 16]float32
}

func buildGELUTab() {
	for h := range geluTab.y {
		v := HalfToFloat32(uint16(h))
		geluTab.y[h], geluTab.dy[h] = geluScalar(v), geluGradScalar(v)
	}
}

// normalHalf returns the binary16 bits of v when v is a normal binary16
// value (2^-14 <= |v| <= 65504 with the low 13 mantissa bits clear), decided
// on the integer bits alone. That is every element of a grid tensor but the
// zeros, subnormals (|v| < 6.2e-5) and non-finite values, which are rare
// enough to leave to the formula.
func normalHalf(v float32) (h uint16, ok bool) {
	const (
		minNormal = 0x38800000       // 2^-14, the smallest normal half
		overMax   = 0x47800000       // 2^16, past the largest (65504)
		rebias    = (127 - 15) << 23 // float32 exponent bias over binary16's
	)
	b := math.Float32bits(v)
	a := b &^ (1 << 31)
	ok = a-minNormal < overMax-minNormal && b&0x1fff == 0
	return uint16(b>>16&0x8000 | (a-rebias)>>13), ok
}

// geluScalar is the definition: tanh-approximated GELU in float64.
func geluScalar(v float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
}

// geluGradScalar is its derivative, rounded to float32 before it meets dy.
func geluGradScalar(v float32) float32 {
	const c = 0.7978845608028654
	xf := float64(v)
	u := c * (xf + 0.044715*xf*xf*xf)
	tanh := math.Tanh(u)
	sech2 := 1 - tanh*tanh
	du := c * (1 + 3*0.044715*xf*xf)
	return float32(0.5*(1+tanh) + 0.5*xf*sech2*du)
}

// SoftmaxRows applies SoftmaxRow to each row in place, one after the other.
func SoftmaxRows(x *Tensor) error {
	m, n, err := x.Dims2()
	if err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		SoftmaxRow(x.Data[i*n : (i+1)*n])
	}
	return nil
}

// SoftmaxRow applies a numerically-stable softmax to one non-empty row in
// place: the maximum, exp and the sum in float64 in increasing index, one
// float32 multiply by the reciprocal. It is the softmax everywhere — causal
// attention hands it a row's prefix up to the diagonal, which is the masked
// row exactly: a masked cell is exp(-Inf) = 0 in the sum and 0 after the
// scale.
func SoftmaxRow(row []float32) {
	max := row[0]
	for _, v := range row {
		if v > max {
			max = v
		}
	}
	var sum float64
	for j, v := range row {
		e := math.Exp(float64(v - max))
		row[j] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for j := range row {
		row[j] *= inv
	}
}

// SetParallelism sets the worker-pool participant count the kernels use;
// n < 1 is clamped to 1 (fully serial). The initial value is
// runtime.GOMAXPROCS.
func SetParallelism(n int) { pool.Default().SetLimit(n) }

// Parallelism reports the current kernel parallelism.
func Parallelism() int { return pool.Default().Limit() }
