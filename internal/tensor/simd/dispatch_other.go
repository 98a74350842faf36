//go:build !amd64

package simd

// Architectures without vector kernels stay on the generic reference
// implementations, which are performance-neutral with the pre-SIMD kernels
// (they are the same code).

func archAvailable() bool { return false }

func archKernels() kernels { return generic }

// PackPanel and GemmTiles are the references on every call (see
// dispatch_amd64.go for the contracts).

func PackPanel(bp, b []float32, ldb, kc int) { PackPanelGeneric(bp, b, ldb, kc) }

func GemmTiles(c []float32, ldc int, a []float32, ars, aps, m int, bp []float32, kc int, accumulate bool) {
	GemmTilesGeneric(c, ldc, a, ars, aps, m, bp, kc, accumulate)
}
