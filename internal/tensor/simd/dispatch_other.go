//go:build !amd64

package simd

// Architectures without vector kernels stay on the generic reference
// implementations, which are performance-neutral with the pre-SIMD kernels
// (they are the same code).

func archKernels() []kernels { return nil }

// PackPanel and GemmTiles are the references on every call (see
// dispatch_amd64.go for the contracts).

func PackPanel(bp, b []float32, ldb, kc, nr int) { PackPanelGeneric(bp, b, ldb, kc, nr) }

func GemmTiles(c []float32, ldc int, a []float32, ars, aps, m int, bp []float32, nr, kc int, accumulate bool) {
	GemmTilesGeneric(c, ldc, a, ars, aps, m, bp, nr, kc, accumulate)
}
