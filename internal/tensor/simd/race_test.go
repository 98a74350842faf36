//go:build race

package simd

// The race detector slows the codec's exhaustive sweep about tenfold: under
// it, the sweep runs the -short subset.
func init() { deltaSweepStride = 4099 }
