package tensor

import (
	"math"
	"math/rand"
	"testing"

	"ratel/internal/tensor/simd"
)

// gridValue draws a finite value on the fp16 grid — what every forward tensor
// of the engine holds — with the zeros of both signs and the subnormals
// over-represented.
func gridValue(rng *rand.Rand) float32 {
	switch rng.Intn(10) {
	case 0:
		return HalfToFloat32(uint16(rng.Intn(2)) << 15) // ±0
	case 1:
		return HalfToFloat32(uint16(rng.Intn(2))<<15 | uint16(1+rng.Intn(0x3ff))) // subnormal
	}
	for {
		if h := uint16(rng.Intn(1 << 16)); h>>10&0x1f != 0x1f {
			return HalfToFloat32(h)
		}
	}
}

// strided is a rows x cols window in the middle of a wider dirty storage, as a
// head's columns lie in a [tokens, 3d] activation: the view, its backing
// storage, and a copy of that storage from before any product ran.
type strided struct {
	View
	back   []float32
	before []float32
}

const dirty = float32(1e30)

func newStrided(rows, cols, pad int, fill func() float32) *strided {
	stride := pad + cols + pad
	s := &strided{back: make([]float32, pad+rows*stride)}
	for i := range s.back {
		s.back[i] = dirty
	}
	s.View = View{Data: s.back[pad:], Rows: rows, Cols: cols, Stride: stride}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			s.Data[i*stride+j] = fill()
		}
	}
	s.before = append([]float32(nil), s.back...)
	return s
}

// contiguous copies the window into a fresh tensor.
func (s *strided) contiguous() *Tensor {
	t := New(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		copy(t.Data[i*s.Cols:(i+1)*s.Cols], s.Data[i*s.Stride:i*s.Stride+s.Cols])
	}
	return t
}

// requireUntouched fails if any storage cell outside the window, or any
// window cell (i,j) for which written is false, differs from what it held
// when the window was made.
func (s *strided) requireUntouched(t *testing.T, what string, written func(i, j int) bool) {
	t.Helper()
	off := len(s.back) - len(s.Data)
	for x := range s.back {
		i, j := (x-off)/s.Stride, (x-off)%s.Stride
		if x >= off && i < s.Rows && j < s.Cols && written(i, j) {
			continue
		}
		if math.Float32bits(s.back[x]) != math.Float32bits(s.before[x]) {
			t.Fatalf("%s: storage cell %d (window row %d col %d) was written", what, x, i, j)
		}
	}
}

// onEveryLevel runs f with the kernels pinned to each set this machine has
// in turn: the reference, and every vector level up to the one it selects.
func onEveryLevel(t *testing.T, f func(t *testing.T)) {
	for _, level := range simd.Levels() {
		restore := simd.ForceLevel(level)
		t.Run(level, f)
		restore()
	}
}

// TestViewProductsBitIdenticalToContiguous is the exactness table of the view
// products, at causal attention's shapes: seq x seq triangular matrices
// against seq x dh operands that lie strided in wider storage. Each product,
// with and without the triangular declaration, equals the contiguous full
// product over gathered copies bit for bit — the full product reads the
// triangular operand's other half, which holds +0, and multiplies it out; the
// declared one never goes there — and writes nothing outside its window (for
// a triangular c, nothing above the diagonal). seq covers one row, ragged and
// whole tiles, and more than one packed k-block; dh covers one ragged and one
// whole column panel; inputs are on the fp16 grid with signed zeros and
// subnormals; on every kernel level, at one and several threads.
func TestViewProductsBitIdenticalToContiguous(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	onEveryLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		grid := func() float32 { return gridValue(rng) }
		for _, seq := range []int{1, 3, 4, 5, 64, 65, 128, 300} {
			for _, dh := range []int{8, 16, 24, 32} {
				for _, threads := range []int{1, 3} {
					SetParallelism(threads)
					// tri is lower-triangular: values on and below the
					// diagonal (zeros of both signs among them), +0 above.
					tri := New(seq, seq)
					for i := 0; i < seq; i++ {
						for j := 0; j <= i; j++ {
							tri.Data[i*seq+j] = grid()
						}
					}
					x, y := newStrided(seq, dh, 5, grid), newStrided(seq, dh, 3, grid)
					xc, yc := x.contiguous(), y.contiguous()
					all := func(i, j int) bool { return true }

					want := New(seq, dh)
					for _, lower := range []bool{false, true} {
						// c = tri·x
						if err := MatMulInto(want, tri, xc); err != nil {
							t.Fatal(err)
						}
						c := newStrided(seq, dh, 7, func() float32 { return dirty })
						if err := MatMulView(c.View, tri.View(), x.View, lower); err != nil {
							t.Fatal(err)
						}
						requireSameBits(t, "MatMulView", seq, dh, lower, c.contiguous(), want)
						c.requireUntouched(t, "MatMulView", all)

						// c = triᵀ·x
						if err := TMatMulInto(want, tri, xc); err != nil {
							t.Fatal(err)
						}
						c = newStrided(seq, dh, 7, func() float32 { return dirty })
						if err := TMatMulView(c.View, tri.View(), x.View, lower); err != nil {
							t.Fatal(err)
						}
						requireSameBits(t, "TMatMulView", seq, dh, lower, c.contiguous(), want)
						c.requireUntouched(t, "TMatMulView", all)

						// c = x·yᵀ, square; declared triangular, only j <= i.
						sq := New(seq, seq)
						if err := MatMulTInto(sq, xc, yc); err != nil {
							t.Fatal(err)
						}
						written := all
						if lower {
							written = func(i, j int) bool { return j <= i }
						}
						c = newStrided(seq, seq, 2, func() float32 { return dirty })
						if err := MatMulTView(c.View, x.View, y.View, lower); err != nil {
							t.Fatal(err)
						}
						got := c.contiguous()
						for i := 0; i < seq; i++ {
							for j := 0; j < seq; j++ {
								if !written(i, j) {
									got.Data[i*seq+j] = sq.Data[i*seq+j]
								}
							}
						}
						requireSameBits(t, "MatMulTView", seq, dh, lower, got, sq)
						c.requireUntouched(t, "MatMulTView", written)
					}
					x.requireUntouched(t, "operand x", func(i, j int) bool { return false })
					y.requireUntouched(t, "operand y", func(i, j int) bool { return false })
				}
			}
		}
	})
}

func requireSameBits(t *testing.T, op string, seq, dh int, lower bool, got, want *Tensor) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s seq=%d dh=%d lower=%v threads=%d %s: element %d = %v (%#08x), contiguous full product %v (%#08x)",
				op, seq, dh, lower, Parallelism(), simd.Level(), i, got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestViewProductsSkipByIndexOnly pins what the triangular declaration does
// and does not do with non-finite data. A zero coefficient inside the
// triangle is a value, not structure, and still multiplies its NaN — as in
// the plain matmuls, which TestMatMulPropagatesNaNThroughZeros pins — so a
// NaN in row p of b reaches every row of c whose sum includes p. A row whose
// sum excludes p by index does not read it: that is the declared semantics,
// and what the causal mask used to overwrite. (A register tile decides per
// tile, so the rows that share p's tile may go either way.)
func TestViewProductsSkipByIndexOnly(t *testing.T) {
	onEveryLevel(t, func(t *testing.T) {
		nan := float32(math.NaN())
		const seq, dh, p = 13, 16, 6
		tileLo := p - p%simd.GemmMR
		tri := New(seq, seq) // all +0: every coefficient inside the triangle is a zero by value
		b := New(seq, dh)
		b.Data[p*dh+3] = nan
		c := New(seq, dh)
		if err := MatMulView(c.View(), tri.View(), b.View(), true); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < seq; i++ {
			isNaN := c.Data[i*dh+3] != c.Data[i*dh+3]
			if i >= p && !isNaN {
				t.Errorf("MatMulView lower: row %d sums p = %d and lost b's NaN to a zero coefficient", i, p)
			}
			if i < tileLo && isNaN {
				t.Errorf("MatMulView lower: row %d read b's row %d, above its diagonal", i, p)
			}
		}
		if err := TMatMulView(c.View(), tri.View(), b.View(), true); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < seq; i++ {
			isNaN := c.Data[i*dh+3] != c.Data[i*dh+3]
			if i <= p && !isNaN {
				t.Errorf("TMatMulView lower: row %d sums p = %d and lost b's NaN to a zero coefficient", i, p)
			}
			if i >= tileLo+simd.GemmMR && isNaN {
				t.Errorf("TMatMulView lower: row %d read b's row %d, before its diagonal", i, p)
			}
		}
	})
}

// TestViewProductsRejectBadOperands: shape mismatches, windows that overrun
// their storage and a non-square triangular operand are errors, not panics.
func TestViewProductsRejectBadOperands(t *testing.T) {
	v := func(rows, cols int) View { return New(rows, cols).View() }
	short := View{Data: make([]float32, 10), Rows: 4, Cols: 4, Stride: 4}
	for name, err := range map[string]error{
		"matmul inner":      MatMulView(v(4, 8), v(4, 5), v(6, 8), false),
		"matmul dst":        MatMulView(v(4, 7), v(4, 5), v(5, 8), false),
		"matmul lower":      MatMulView(v(4, 8), v(4, 5), v(5, 8), true),
		"matmul overrun":    MatMulView(v(4, 8), short, v(4, 8), false),
		"tmatmul inner":     TMatMulView(v(5, 8), v(4, 5), v(6, 8), false),
		"tmatmul lower":     TMatMulView(v(5, 8), v(4, 5), v(4, 8), true),
		"matmulT inner":     MatMulTView(v(4, 6), v(4, 5), v(6, 7), false),
		"matmulT lower":     MatMulTView(v(4, 6), v(4, 5), v(6, 5), true),
		"matmulT bad view":  MatMulTView(v(4, 4), View{Data: make([]float32, 64), Rows: 4, Cols: 8, Stride: 6}, v(4, 8), false),
		"matmulT neg shape": MatMulTView(View{Rows: -1}, v(4, 5), v(6, 5), false),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Window outside its tensor did not panic")
		}
	}()
	New(4, 4).Window(2, 3, 0, 4)
}
