package gojoin_test

import (
	"testing"

	"ratel/internal/analysis/analysistest"
	"ratel/internal/analysis/gojoin"
)

func TestGojoin(t *testing.T) {
	analysistest.Run(t, gojoin.Analyzer, "gjd")
}

func TestScope(t *testing.T) {
	for _, pkg := range []string{"ratel/internal/engine", "ratel/internal/nvme", "ratel/internal/opt", "ratel/internal/tensor/pool"} {
		if !gojoin.Analyzer.AppliesTo(pkg) {
			t.Errorf("gojoin should cover %s", pkg)
		}
	}
	if gojoin.Analyzer.AppliesTo("ratel/internal/analysis") {
		t.Error("gojoin covers only the goroutine-spawning pipeline packages")
	}
}
