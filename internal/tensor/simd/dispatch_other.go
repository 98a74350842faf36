//go:build !amd64

package simd

// Architectures without vector kernels stay on the generic reference
// implementations, which are performance-neutral with the pre-SIMD kernels
// (they are the same code).

func archAvailable() bool { return false }

func archKernels() kernels { return generic }

// GemmPanel is the reference on every call and leaves bp unused (see
// dispatch_amd64.go for the contract).
func GemmPanel(c []float32, ldc int, a []float32, ars, aps, m int, b []float32, ldb, kc int, bp []float32, accumulate bool) {
	GemmPanelGeneric(c, ldc, a, ars, aps, m, b, ldb, kc, accumulate)
}
