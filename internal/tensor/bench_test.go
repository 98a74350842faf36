package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ratel/internal/tensor/simd"
)

// pinnedLevels lists the vector kernel levels other than the selected one
// (avx2-fma-f16c on a machine that selects avx512; every vector level under
// RATEL_NOSIMD): the matmul benchmarks time them too, pinned, so a row on this
// machine's kernels stands next to the same row on what a lesser machine runs.
func pinnedLevels() []string {
	var pinned []string
	for _, level := range simd.Levels()[1:] {
		if level != simd.Level() {
			pinned = append(pinned, level)
		}
	}
	return pinned
}

// benchmarkMatMul measures square matmul these ways: the naive
// single-threaded reference, the cache-blocked kernel pinned to the
// generic (no-SIMD) dispatch and to each other vector level on one thread, the blocked kernel with the selected dispatch on one
// thread, and the blocked kernel on the full worker pool. The GFLOPS metric
// makes the scalar/SIMD/parallel comparison directly readable in
// BENCH_kernels.json.
func benchmarkMatMul(b *testing.B, size int) {
	rng := rand.New(rand.NewSource(1))
	x := randTensor(rng, size, size)
	y := randTensor(rng, size, size)
	flops := 2 * float64(size) * float64(size) * float64(size)

	old := Parallelism()
	defer SetParallelism(old)

	b.Run("naive-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matMulRef(x, y)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
	pinned := map[string]string{"blocked-nosimd-1thread": "generic"}
	for _, level := range pinnedLevels() {
		pinned["blocked-"+level+"-1thread"] = level
	}
	for name, level := range pinned {
		b.Run(name, func(b *testing.B) {
			SetParallelism(1)
			defer simd.ForceLevel(level)()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MatMul(nil, x, y); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
	b.Run("blocked-1thread", func(b *testing.B) {
		SetParallelism(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := MatMul(nil, x, y); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
	b.Run(fmt.Sprintf("blocked-%dthreads", runtime.NumCPU()), func(b *testing.B) {
		SetParallelism(runtime.NumCPU())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := MatMul(nil, x, y); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

func BenchmarkMatMul_256(b *testing.B)  { benchmarkMatMul(b, 256) }
func BenchmarkMatMul_512(b *testing.B)  { benchmarkMatMul(b, 512) }
func BenchmarkMatMul_1024(b *testing.B) { benchmarkMatMul(b, 1024) }

// benchmarkFP16Codec measures the packed binary16 encode/decode and the
// in-place round-trip at steady state (reused buffers, one thread), with
// the selected dispatch and pinned to the generic reference. The GB/s
// metric counts fp32 bytes processed — the number that matters for the
// offload staging paths feeding the NVMe writers.
func benchmarkFP16Codec(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(2))
	src := make([]float32, n)
	dst := make([]float32, n)
	for i := range src {
		src[i] = rng.Float32()*2 - 1
	}
	enc := make([]byte, 2*n)
	gbs := func(b *testing.B) float64 {
		return 4 * float64(n) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	}

	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(1)

	variants := []struct {
		name string
		pin  bool
	}{{"nosimd", true}, {"simd", false}}
	for _, v := range variants {
		b.Run("encode-"+v.name, func(b *testing.B) {
			if v.pin {
				defer simd.ForceGeneric()()
			}
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ToFP16BytesInto(enc, src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(gbs(b), "GB/s")
		})
		b.Run("decode-"+v.name, func(b *testing.B) {
			if v.pin {
				defer simd.ForceGeneric()()
			}
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := FromFP16Bytes(enc, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(gbs(b), "GB/s")
		})
		b.Run("round-"+v.name, func(b *testing.B) {
			if v.pin {
				defer simd.ForceGeneric()()
			}
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := RoundFP16Into(dst, src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(gbs(b), "GB/s")
		})
	}
}

func BenchmarkFP16Codec_64K(b *testing.B) { benchmarkFP16Codec(b, 1<<16) }
func BenchmarkFP16Codec_1M(b *testing.B)  { benchmarkFP16Codec(b, 1<<20) }

// benchWorkloads is the geometry of the four BENCHMARK.json workloads, for
// the benchmarks that time a kernel at the sizes the engine runs it at.
var benchWorkloads = []struct {
	name                    string
	tokens, hidden, seq, dh int
}{
	{"io_mixed", 128, 32, 64, 16},
	{"opt_stream", 128, 64, 64, 16},
	{"compute", 256, 256, 128, 32},
	{"accum_ckpt_file", 128, 128, 64, 32},
}

// BenchmarkGEMMShapes times the three matmul variants at the shapes the
// engine actually runs — each BENCHMARK.json workload's Linear GEMMs
// (tokens x h x {3h, h, 4h} and tokens x 4h x h) and its per-head attention
// GEMMs (seq x seq x dh and seq x dh x seq) — on one thread and on NumCPU
// threads, and on one thread pinned to each other vector level the machine
// has. Sub-benchmark names read workload/variant/MxKxN/threads, or
// .../1t@level for a pinned row, with (M, K, N) the logical product
// dimensions: c[M,N] = Σ_K.
func BenchmarkGEMMShapes(b *testing.B) {
	variants := []struct {
		name string
		// operands builds a, b for the logical (m, k, n).
		operands func(rng *rand.Rand, m, k, n int) (a, b *Tensor)
		into     func(c, a, b *Tensor) error
		// linear maps a Linear layer (in, out) at `tokens` rows to the
		// variant's logical (m, k, n): forward, input-gradient and
		// weight-gradient GEMMs respectively.
		linear func(tokens, in, out int) (m, k, n int)
		// attention is the variant's per-head shape.
		attention func(seq, dh int) (m, k, n int)
	}{
		{"MatMul",
			func(rng *rand.Rand, m, k, n int) (*Tensor, *Tensor) {
				return randTensor(rng, m, k), randTensor(rng, k, n)
			},
			MatMulInto,
			func(t, in, out int) (int, int, int) { return t, in, out },
			func(seq, dh int) (int, int, int) { return seq, seq, dh }},
		{"MatMulT",
			func(rng *rand.Rand, m, k, n int) (*Tensor, *Tensor) {
				return randTensor(rng, m, k), randTensor(rng, n, k)
			},
			MatMulTInto,
			func(t, in, out int) (int, int, int) { return t, out, in },
			func(seq, dh int) (int, int, int) { return seq, dh, seq }},
		{"TMatMul",
			func(rng *rand.Rand, m, k, n int) (*Tensor, *Tensor) {
				return randTensor(rng, k, m), randTensor(rng, k, n)
			},
			TMatMulInto,
			func(t, in, out int) (int, int, int) { return in, t, out },
			func(seq, dh int) (int, int, int) { return seq, seq, dh }},
	}

	old := Parallelism()
	defer SetParallelism(old)
	rng := rand.New(rand.NewSource(4))
	for _, w := range benchWorkloads {
		h := w.hidden
		for _, v := range variants {
			shapes := [][3]int{}
			for _, l := range [][2]int{{h, 3 * h}, {h, h}, {h, 4 * h}, {4 * h, h}} {
				m, k, n := v.linear(w.tokens, l[0], l[1])
				shapes = append(shapes, [3]int{m, k, n})
			}
			m, k, n := v.attention(w.seq, w.dh)
			shapes = append(shapes, [3]int{m, k, n})
			for _, s := range shapes {
				m, k, n := s[0], s[1], s[2]
				x, y := v.operands(rng, m, k, n)
				c := New(m, n)
				flops := 2 * float64(m) * float64(k) * float64(n)
				runs := []struct {
					threads int
					level   string
				}{{1, simd.Level()}, {runtime.NumCPU(), simd.Level()}}
				for _, level := range pinnedLevels() {
					runs = append(runs, struct {
						threads int
						level   string
					}{1, level})
				}
				for _, r := range runs {
					name := fmt.Sprintf("%s/%s/%dx%dx%d/%dt", w.name, v.name, m, k, n, r.threads)
					if r.level != simd.Level() {
						name += "@" + r.level
					}
					b.Run(name, func(b *testing.B) {
						SetParallelism(r.threads)
						defer simd.ForceLevel(r.level)()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if err := v.into(c, x, y); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
					})
				}
			}
		}
	}
}

// BenchmarkGELU and BenchmarkGELUBackward time the public kernels (table
// lookups) at each BENCHMARK.json workload's FC1 output (tokens x 4·hidden,
// on the fp16 grid as the engine's are) on one thread, against the scalar
// float64 formula the tables are filled from — the kernel before the tables,
// and still the path of an off-grid element.
func benchmarkGELU(b *testing.B, kernel func(x, dy *Tensor), formula func(x, dy, out []float32)) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(1)
	rng := rand.New(rand.NewSource(6))
	for _, w := range benchWorkloads {
		x := randTensor(rng, w.tokens, 4*w.hidden)
		x.RoundFP16InPlace()
		dy := randTensor(rng, w.tokens, 4*w.hidden)
		out := New(w.tokens, 4*w.hidden)
		shape := fmt.Sprintf("%s/%dx%d", w.name, w.tokens, 4*w.hidden)
		melems := func(b *testing.B) {
			b.ReportMetric(float64(len(x.Data))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
		}
		b.Run(shape+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(x, dy)
			}
			melems(b)
		})
		b.Run(shape+"/formula", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				formula(x.Data, dy.Data, out.Data)
			}
			melems(b)
		})
	}
}

func BenchmarkGELU(b *testing.B) {
	benchmarkGELU(b,
		func(x, _ *Tensor) { GELU(nil, x) },
		func(x, _, out []float32) {
			for i, v := range x {
				out[i] = geluScalar(v)
			}
		})
}

func BenchmarkGELUBackward(b *testing.B) {
	benchmarkGELU(b,
		func(x, dy *Tensor) {
			if _, err := GELUBackward(nil, x, dy); err != nil {
				b.Fatal(err)
			}
		},
		func(x, dy, out []float32) {
			for i, v := range x {
				out[i] = dy[i] * geluGradScalar(v)
			}
		})
}
