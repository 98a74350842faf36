// Package registry enumerates every ratelvet analyzer in one place so the
// command, the tests, and future tooling agree on the active set.
package registry

import (
	"ratel/internal/analysis"
	"ratel/internal/analysis/errdrop"
	"ratel/internal/analysis/simdet"
	"ratel/internal/analysis/unitsafe"
)

// All returns the full analyzer set in stable (alphabetical) order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		errdrop.Analyzer,
		simdet.Analyzer,
		unitsafe.Analyzer,
	}
}
