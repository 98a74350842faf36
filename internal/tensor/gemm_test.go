package tensor

import (
	"math"
	"math/rand"
	"testing"

	"ratel/internal/tensor/pool"
	"ratel/internal/tensor/simd"
)

// The oracles are the matmuls as they were computed before the tile
// kernels: full-row simd.Axpy updates in increasing p from a zeroed row, and
// one simd.Dot per cell. They share nothing with the GEMM driver but the two
// BLAS-1 kernels, so they hold on the vector and on the generic path alike.

// gemmOracle computes c[m,n] = Σ_p a[i*ars+p*aps]·b[p,j].
func gemmOracle(a, b []float32, ars, aps, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			simd.Axpy(c[i*n:(i+1)*n], b[p*n:(p+1)*n], a[i*ars+p*aps])
		}
	}
	return c
}

// dotOracle computes c[m,n] = a[m,k]·b[n,k]ᵀ.
func dotOracle(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c[i*n+j] = simd.Dot(a[i*k:(i+1)*k], b[j*k:(j+1)*k])
		}
	}
	return c
}

// TestGEMMBitIdenticalToOracle is the exactness table: MatMul, MatMulT and
// TMatMul against the axpy/dot oracles, bit for bit, over shapes that are
// ragged against every blocking constant (the 8x32 tile and its half panel,
// the 8-lane and 32-element vector steps, the 256-deep packed panel), into dirty
// destinations, with 0·NaN and 0·Inf planted, at parallelism 1 to 4. Under
// RATEL_NOSIMD=1 (make test-nosimd) the same table runs on the generic
// path.
func TestGEMMBitIdenticalToOracle(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)

	dims := []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 48, 129, 257, 300}
	rng := rand.New(rand.NewSource(21))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	triple, nans := 0, 0
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				triple++
				// x is [m,k] or, read transposed, [k,m]; y is [k,n] or [n,k].
				x, y := randTensor(rng, m, k), randTensor(rng, k, n)
				if triple%5 == 0 {
					// Zero coefficients facing a NaN and an Inf (x's first k
					// values are row 0 of a·b and a·bᵀ): skipping zeros would
					// lose both.
					clear(x.Data[:k])
					y.Data[rng.Intn(k*n)] = nan
					y.Data[rng.Intn(k*n)] = inf
				}
				xt := &Tensor{Shape: []int{k, m}, Data: x.Data}
				yt := &Tensor{Shape: []int{n, k}, Data: y.Data}
				cases := []struct {
					name string
					want []float32
					into func(c *Tensor) error
				}{
					{"MatMul", gemmOracle(x.Data, y.Data, k, 1, m, k, n), func(c *Tensor) error { return MatMulInto(c, x, y) }},
					{"TMatMul", gemmOracle(x.Data, y.Data, 1, m, m, k, n), func(c *Tensor) error { return TMatMulInto(c, xt, y) }},
					{"MatMulT", dotOracle(x.Data, y.Data, m, k, n), func(c *Tensor) error { return MatMulTInto(c, x, yt) }},
				}
				// Below the pool's cutoff every setting runs the same serial
				// call; above it each one carves the columns differently.
				threads := []int{1 + triple%4}
				SetParallelism(4)
				if !pool.InlineWork(int64(m) * int64(k) * int64(n)) {
					threads = []int{1, 2, 3, 4}
				}
				for _, tc := range cases {
					for _, th := range threads {
						SetParallelism(th)
						c := New(m, n)
						fillDirty(c)
						if err := tc.into(c); err != nil {
							t.Fatal(err)
						}
						for i, w := range tc.want {
							if w != w {
								nans++
							}
							if math.Float32bits(c.Data[i]) != math.Float32bits(w) {
								t.Fatalf("%s m=%d k=%d n=%d threads=%d: c[%d,%d] = %v (%#08x), oracle %v (%#08x)",
									tc.name, m, k, n, th, i/n, i%n, c.Data[i], math.Float32bits(c.Data[i]), w, math.Float32bits(w))
							}
						}
					}
				}
			}
		}
	}
	if nans == 0 {
		t.Error("no planted NaN reached an oracle result: the 0·NaN rows test nothing")
	}
}

// TestGEMMDeepKBlocks crosses the packed panel depth several times (the
// table above reaches it once): every k-block after the first reloads the
// tile and continues the chain, which must round nothing.
func TestGEMMDeepKBlocks(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(1)
	rng := rand.New(rand.NewSource(22))
	const m, n = 9, 35
	for _, k := range []int{gemmKC - 1, gemmKC, gemmKC + 1, 3*gemmKC + 7} {
		x, y := randTensor(rng, m, k), randTensor(rng, k, n)
		c := New(m, n)
		fillDirty(c)
		if err := MatMulInto(c, x, y); err != nil {
			t.Fatal(err)
		}
		for i, w := range gemmOracle(x.Data, y.Data, k, 1, m, k, n) {
			if math.Float32bits(c.Data[i]) != math.Float32bits(w) {
				t.Fatalf("MatMul k=%d: element %d = %v, oracle %v", k, i, c.Data[i], w)
			}
		}
		xt := &Tensor{Shape: []int{k, m}, Data: x.Data}
		if err := TMatMulInto(c, xt, y); err != nil {
			t.Fatal(err)
		}
		for i, w := range gemmOracle(x.Data, y.Data, 1, m, m, k, n) {
			if math.Float32bits(c.Data[i]) != math.Float32bits(w) {
				t.Fatalf("TMatMul k=%d: element %d = %v, oracle %v", k, i, c.Data[i], w)
			}
		}
	}
}

// TestMatMulTiersBitIdentical: the vector levels are one answer at the level
// of a whole product. The three matmuls on fp16-grid operands with signed
// zeros and subnormals — what the engine's tensors hold — leave the same bits
// under every vector level this machine has, at row counts around the tile's
// eight, column counts around the panel's 32 and its half, and depths around
// the packed block (from 257 on a chain continues through an accumulating
// sweep). The reference is not in the comparison: it does not fuse.
func TestMatMulTiersBitIdentical(t *testing.T) {
	levels := simd.Levels()[1:]
	if len(levels) < 2 {
		t.Skip("fewer than two vector levels on this machine")
	}
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(1)
	rng := rand.New(rand.NewSource(23))
	grid := func(rows, cols int) *Tensor {
		x := New(rows, cols)
		for i := range x.Data {
			x.Data[i] = gridValue(rng)
		}
		return x
	}
	for _, m := range []int{7, 8, 9, 256} {
		for _, n := range []int{31, 32, 33, 40, 768} {
			for _, k := range []int{1, 255, 256, 257, 1024} {
				x, y := grid(m, k), grid(k, n)
				xt := &Tensor{Shape: []int{k, m}, Data: x.Data}
				yt := &Tensor{Shape: []int{n, k}, Data: y.Data}
				ops := []struct {
					name string
					into func(c *Tensor) error
				}{
					{"MatMul", func(c *Tensor) error { return MatMulInto(c, x, y) }},
					{"TMatMul", func(c *Tensor) error { return TMatMulInto(c, xt, y) }},
					{"MatMulT", func(c *Tensor) error { return MatMulTInto(c, x, yt) }},
				}
				for _, op := range ops {
					var want *Tensor
					for _, level := range levels {
						restore := simd.ForceLevel(level)
						c := New(m, n)
						fillDirty(c)
						err := op.into(c)
						restore()
						if err != nil {
							t.Fatal(err)
						}
						if want == nil {
							want = c
							continue
						}
						for i := range c.Data {
							if math.Float32bits(c.Data[i]) != math.Float32bits(want.Data[i]) {
								t.Fatalf("%s m=%d k=%d n=%d: c[%d,%d] = %v (%#08x) on %s, %v (%#08x) on %s",
									op.name, m, k, n, i/n, i%n, c.Data[i], math.Float32bits(c.Data[i]), level, want.Data[i], math.Float32bits(want.Data[i]), levels[0])
							}
						}
					}
				}
			}
		}
	}
}

// TestMatMulIntoAllocs pins the Into matmuls at zero allocations per call
// on the serial path — the packed panel is a stack buffer — at a shape with
// ragged rows, ragged columns and more than one k-block, and pins the
// parallel path at what dispatching any job to the pool costs: packing
// adds nothing to it. In make test-procs, so it is checked at GOMAXPROCS
// 1, 2 and 4.
func TestMatMulIntoAllocs(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	rng := rand.New(rand.NewSource(23))
	const m, k, n = 70, 300, 83
	a, b, bt, at := randTensor(rng, m, k), randTensor(rng, k, n), randTensor(rng, n, k), randTensor(rng, k, m)
	c := New(m, n)
	kernels := []struct {
		name string
		run  func()
	}{
		{"MatMulInto", func() { _ = MatMulInto(c, a, b) }},
		{"MatMulTInto", func() { _ = MatMulTInto(c, a, bt) }},
		{"TMatMulInto", func() { _ = TMatMulInto(c, at, b) }},
	}

	SetParallelism(1)
	for _, kn := range kernels {
		if allocs := testing.AllocsPerRun(20, kn.run); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the serial path, want 0", kn.name, allocs)
		}
	}

	SetParallelism(4)
	work := int64(m) * int64(k) * int64(n)
	dispatch := testing.AllocsPerRun(20, func() { pool.ForWork(n, 1, work, func(lo, hi int) {}) })
	for _, kn := range kernels {
		// One more than the empty job: the kernel's closure captures its
		// operands, the empty one captures nothing.
		if allocs := testing.AllocsPerRun(20, kn.run); allocs > dispatch+1 {
			t.Errorf("%s: %v allocs/op at parallelism 4, a bare pool dispatch is %v", kn.name, allocs, dispatch)
		}
	}
}
