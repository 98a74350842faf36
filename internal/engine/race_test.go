//go:build race

package engine

// The race detector slows the compute shape's steps about tenfold: under it,
// TestComputeShapeStateLayouts runs 2 warm-up and 10 steady steps.
func init() { layoutSteps = [2]int{2, 10} }
