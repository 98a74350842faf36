// Package simdd is simddispatch's golden testdata.
package simdd

import "ratel/internal/tensor/simd"

func dispatchedCallsAreFine(c, b []float32) float32 {
	simd.Axpy(c, b, 2)
	simd.Add(c, b)
	simd.Scale(c, 0.5)
	return simd.Dot(c, b)
}

func directGenericCall(c, b []float32) {
	simd.AxpyGeneric(c, b, 2) // want `direct call to simd.AxpyGeneric bypasses the kernel dispatch`
}

func tileEntryPointsAreFine(c, a, bp []float32) {
	simd.PackPanel(bp, c, simd.GemmNR, 1, simd.GemmNR)
	simd.GemmTiles(c, simd.GemmNR, a, 1, simd.GemmMR, simd.GemmMR, bp, simd.GemmNR, 1, false)
	simd.DotRow(c[:simd.DotRowTile], a, bp, len(a))
}

func directTileReferenceCalls(c, a, bp []float32) {
	simd.GemmTilesGeneric(c, simd.GemmNR, a, 1, simd.GemmMR, simd.GemmMR, bp, simd.GemmNR, 1, false) // want `direct call to simd.GemmTilesGeneric bypasses the kernel dispatch`
	simd.DotRowGeneric(c, a, bp, len(a))                                                             // want `direct call to simd.DotRowGeneric bypasses the kernel dispatch`
}

func directCodecCalls(dst []byte, src []float32) {
	simd.F16EncodeGeneric(dst, src) // want `direct call to simd.F16EncodeGeneric bypasses the kernel dispatch`
	simd.F16RoundGeneric(src)       // want `direct call to simd.F16RoundGeneric bypasses the kernel dispatch`
	_ = simd.DotGeneric(src, src)   // want `direct call to simd.DotGeneric bypasses the kernel dispatch`
}

func genericAsFunctionValue() func(d []float32, s float32) {
	return simd.ScaleGeneric // want `direct call to simd.ScaleGeneric bypasses the kernel dispatch`
}

func forceGenericIsTheSanctionedHook() {
	restore := simd.ForceGeneric()
	defer restore()
}

func scalarConversionsAreFine(f float32) float32 {
	return simd.HalfToFloat32(simd.Float32ToHalf(f))
}
