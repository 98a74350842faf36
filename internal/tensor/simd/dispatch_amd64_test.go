//go:build amd64

package simd

import "testing"

// TestVectorTier is the feature gate's table: what CPUID leaf 1 ECX, leaf 7
// EBX and XCR0 must say for each tier, and that a CPU with the instructions
// under an OS that does not save the registers gets the tier below.
func TestVectorTier(t *testing.T) {
	const (
		leaf1AVX2 = 1<<27 | 1<<28 | 1<<29 | 1<<12 // OSXSAVE, AVX, F16C, FMA
		avx2      = 1 << 5
		avx512f   = 1 << 16
	)
	for _, tc := range []struct {
		name                      string
		maxLeaf, ecx1, ebx7, xcr0 uint32
		want                      tier
	}{
		{"this tier's full set", 0x1b, leaf1AVX2, avx2 | avx512f, 0xe7, tierAVX512},
		{"avx512f, OS saves no zmm state", 0x1b, leaf1AVX2, avx2 | avx512f, 0x07, tierAVX2},
		{"avx512f, OS saves opmask only", 0x1b, leaf1AVX2, avx2 | avx512f, 0x27, tierAVX2},
		{"avx512f, OS saves no ZMM16-31", 0x1b, leaf1AVX2, avx2 | avx512f, 0x67, tierAVX2},
		{"no avx512f", 0x16, leaf1AVX2, avx2, 0xe7, tierAVX2},
		{"avx512f without avx2's leaf-1 set (no F16C)", 0x1b, leaf1AVX2 &^ (1 << 29), avx2 | avx512f, 0xe7, tierGeneric},
		{"no FMA", 0x1b, leaf1AVX2 &^ (1 << 12), avx2, 0x07, tierGeneric},
		{"no OSXSAVE", 0x1b, leaf1AVX2 &^ (1 << 27), avx2, 0, tierGeneric},
		{"OS saves no ymm state", 0x1b, leaf1AVX2, avx2 | avx512f, 0x03, tierGeneric},
		{"no avx2", 0x1b, leaf1AVX2, avx512f, 0xe7, tierGeneric},
		{"no leaf 7", 6, leaf1AVX2, 0, 0x07, tierGeneric},
	} {
		if got := vectorTier(tc.maxLeaf, tc.ecx1, tc.ebx7, tc.xcr0); got != tc.want {
			t.Errorf("%s: tier %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := len(archKernels()); got != len(Levels())-1 {
		t.Errorf("archKernels found %d sets, Levels lists %d vector levels", got, len(Levels())-1)
	}
}

// BenchmarkFMAPeak is the ceiling a kernel row is read against: twelve
// independent FMA chains with nothing loaded or stored, on ymm registers and,
// where the machine selects the AVX-512 level, on zmm. GFLOPS counts a fused
// multiply-add as two operations, as the matmul benchmarks do.
func BenchmarkFMAPeak(b *testing.B) {
	const iters = 1 << 16
	probes := []struct {
		name  string
		tier  tier
		lanes int
		run   func(int)
	}{{"ymm", tierAVX2, 8, fmaPeakAsm}, {"zmm", tierAVX512, 16, fmaPeak512Asm}}
	for _, p := range probes {
		if sets[len(sets)-1].tier < p.tier {
			continue
		}
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.run(iters)
			}
			b.ReportMetric(2*12*float64(p.lanes)*iters*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}
