package xferown_test

import (
	"testing"

	"ratel/internal/analysis/analysistest"
	"ratel/internal/analysis/xferown"
)

// TestMigrationFromBufreuse runs the retired bufreuse analyzer's golden
// suite unchanged: every straight-line finding it reported must survive
// the move to the dataflow engine.
func TestMigrationFromBufreuse(t *testing.T) {
	analysistest.Run(t, xferown.Analyzer, "bufd")
}

// TestXferown covers the control-flow cases only the CFG engine can see:
// branch merges, loop back edges, defers, and channel transfers.
func TestXferown(t *testing.T) {
	analysistest.Run(t, xferown.Analyzer, "xferd")
}

func TestScope(t *testing.T) {
	for _, pkg := range []string{"ratel/internal/engine", "ratel/internal/nvme"} {
		if !xferown.Analyzer.AppliesTo(pkg) {
			t.Errorf("xferown should cover %s", pkg)
		}
	}
	for _, pkg := range []string{"ratel/internal/tensor", "ratel/internal/obs"} {
		if xferown.Analyzer.AppliesTo(pkg) {
			t.Errorf("xferown should not cover %s", pkg)
		}
	}
}
