package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// --- naive single-threaded references (no blocking, no zero-skip) ---

func matMulRef(a, b *Tensor) *Tensor {
	m, k, _ := a.Dims2()
	_, n, _ := b.Dims2()
	c := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			for j := 0; j < n; j++ {
				c.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return c
}

func matMulTRef(a, b *Tensor) *Tensor {
	m, k, _ := a.Dims2()
	n, _, _ := b.Dims2()
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[j*k+p]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func tMatMulRef(a, b *Tensor) *Tensor {
	k, m, _ := a.Dims2()
	_, n, _ := b.Dims2()
	c := New(m, n)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a.Data[p*m+i]
			for j := 0; j < n; j++ {
				c.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return c
}

func randTensor(rng *rand.Rand, rows, cols int) *Tensor {
	t := New(rows, cols)
	t.RandInit(rng, 1)
	return t
}

func maxRelDiff(t *testing.T, got, want *Tensor) float64 {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("size mismatch %d vs %d", len(got.Data), len(want.Data))
	}
	var worst float64
	for i := range got.Data {
		g, w := float64(got.Data[i]), float64(want.Data[i])
		d := math.Abs(g - w)
		if scale := math.Max(math.Abs(w), 1); d/scale > worst {
			worst = d / scale
		}
	}
	return worst
}

// kernelParityTol is the relative tolerance for the matmul family against
// the naive serial references. The vector kernels use FMA (one rounding
// per multiply-add) and, for the dot kernel, multiple accumulators, so
// they differ from the single-accumulator float32 reference by a few ULPs
// of accumulated rounding — most of the discrepancy is error in the
// *reference* (DESIGN.md §11 records the tolerance-vs-bit-exact matrix).
const kernelParityTol = 1e-4

// TestParallelKernelParity checks the blocked parallel kernels against the
// naive serial references within kernelParityTol relative tolerance,
// across odd shapes (1x1, prime dims, m>>n, n>>m; small-serial and
// large-parallel paths) and thread counts {1, 2, NumCPU}.
func TestParallelKernelParity(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)

	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 7},
		{61, 67, 71},    // prime dims, above the serial cutoff
		{4096, 16, 8},   // m >> n
		{8, 16, 4096},   // n >> m
		{129, 300, 257}, // straddles kBlock/jBlock boundaries
	}
	threads := []int{1, 2, runtime.NumCPU()}
	rng := rand.New(rand.NewSource(7))
	for _, sh := range shapes {
		a := randTensor(rng, sh.m, sh.k)
		b := randTensor(rng, sh.k, sh.n)
		bt := randTensor(rng, sh.n, sh.k)
		at := randTensor(rng, sh.k, sh.m)
		wantMM := matMulRef(a, b)
		wantMMT := matMulTRef(a, bt)
		wantTMM := tMatMulRef(at, b)
		for _, th := range threads {
			SetParallelism(th)
			got, err := MatMul(nil, a, b)
			if err != nil {
				t.Fatalf("%dx%dx%d threads=%d: %v", sh.m, sh.k, sh.n, th, err)
			}
			if d := maxRelDiff(t, got, wantMM); d > kernelParityTol {
				t.Errorf("MatMul %dx%dx%d threads=%d: rel diff %g", sh.m, sh.k, sh.n, th, d)
			}
			if got, err = MatMulT(nil, a, bt); err != nil {
				t.Fatal(err)
			}
			if d := maxRelDiff(t, got, wantMMT); d > kernelParityTol {
				t.Errorf("MatMulT %dx%dx%d threads=%d: rel diff %g", sh.m, sh.k, sh.n, th, d)
			}
			if got, err = TMatMul(nil, at, b); err != nil {
				t.Fatal(err)
			}
			if d := maxRelDiff(t, got, wantTMM); d > kernelParityTol {
				t.Errorf("TMatMul %dx%dx%d threads=%d: rel diff %g", sh.m, sh.k, sh.n, th, d)
			}
		}
	}
}

// TestKernelsBitIdenticalAcrossThreads asserts the stronger determinism
// policy: sharding only independent outputs keeps every kernel that fans out
// — the matmuls, contiguous and on views — bit-identical at any thread count
// (the engine's bit-for-bit suite depends on this), on every kernel level.
// The element-wise kernels run inline and have no second path to compare.
func TestKernelsBitIdenticalAcrossThreads(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	onEveryLevel(t, kernelsBitIdenticalAcrossThreads)
}

func kernelsBitIdenticalAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randTensor(rng, 129, 300)
	b := randTensor(rng, 300, 257)

	// The view products at an attention-like shape big enough to shard: a
	// lower-triangular [seq,seq] against [seq,dh] windows of wider storage.
	const seq, dh = 300, 64
	tri := randTensor(rng, seq, seq)
	for i := 0; i < seq; i++ {
		clear(tri.Data[i*seq+i+1 : (i+1)*seq])
	}
	wide := randTensor(rng, seq, 3*dh)
	q, k := wide.Window(0, seq, 0, dh), wide.Window(0, seq, dh, dh)
	views := func() []*Tensor {
		mv, tv, dv := New(seq, 2*dh), New(seq, 2*dh), New(seq, seq)
		for _, err := range []error{
			MatMulView(mv.Window(0, seq, dh, dh), tri.View(), q, true),
			TMatMulView(tv.Window(0, seq, dh, dh), tri.View(), q, true),
			MatMulTView(dv.View(), q, k, true),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return []*Tensor{mv, tv, dv}
	}

	SetParallelism(1)
	mmSerial, _ := MatMul(nil, a, b)
	viewsSerial := views()

	for _, th := range []int{2, runtime.NumCPU()} {
		SetParallelism(th)
		mm, _ := MatMul(nil, a, b)
		for i := range mmSerial.Data {
			if math.Float32bits(mm.Data[i]) != math.Float32bits(mmSerial.Data[i]) {
				t.Fatalf("MatMul threads=%d: element %d differs bitwise", th, i)
			}
		}
		for n, v := range views() {
			for i := range v.Data {
				if math.Float32bits(v.Data[i]) != math.Float32bits(viewsSerial[n].Data[i]) {
					t.Fatalf("%s threads=%d: element %d differs bitwise", []string{"MatMulView", "TMatMulView", "MatMulTView"}[n], th, i)
				}
			}
		}
	}
}

// TestMatMulPropagatesNaNThroughZeros is the regression test for the old
// `if av == 0 { continue }` fast path, which silently dropped NaN/Inf:
// IEEE-754 requires 0*NaN = NaN and 0*Inf = NaN, so a NaN or Inf anywhere
// in b must poison every output that multiplies it — even by zero.
func TestMatMulPropagatesNaNThroughZeros(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))

	// a's only row is all zeros; b has a NaN in column 0 and an Inf in
	// column 1, so both outputs must come out NaN.
	a, _ := FromData([]float32{0, 0}, 1, 2)
	b, _ := FromData([]float32{nan, inf, 1, 2}, 2, 2)
	c, err := MatMul(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(c.Data[0])) {
		t.Errorf("MatMul: 0*NaN gave %v, want NaN", c.Data[0])
	}
	if !math.IsNaN(float64(c.Data[1])) {
		t.Errorf("MatMul: 0*Inf gave %v, want NaN", c.Data[1])
	}

	// TMatMul: aT has a zero column multiplying b's NaN/Inf rows.
	at, _ := FromData([]float32{0, 0}, 2, 1) // aT is [k=2, m=1], all zero
	ct, err := TMatMul(nil, at, b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(ct.Data[0])) {
		t.Errorf("TMatMul: 0*NaN gave %v, want NaN", ct.Data[0])
	}
	if !math.IsNaN(float64(ct.Data[1])) {
		t.Errorf("TMatMul: 0*Inf gave %v, want NaN", ct.Data[1])
	}

	// MatMulT's dot product never skipped zeros, but pin the behaviour too.
	bt, _ := FromData([]float32{nan, 1}, 1, 2)
	cmt, err := MatMulT(nil, a, bt)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(cmt.Data[0])) {
		t.Errorf("MatMulT: 0*NaN gave %v, want NaN", cmt.Data[0])
	}
}
