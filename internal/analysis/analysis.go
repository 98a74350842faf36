// Package analysis is the static-analysis framework of the module's three
// analyzers (errdrop, simdet, unitsafe): a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface they need.
// It exists because this module builds offline with no third-party
// dependencies; the API mirrors x/tools closely enough that migrating the
// analyzers there later is mechanical.
//
// The pieces:
//
//   - Analyzer / Pass: the x/tools-shaped analyzer contract.
//   - Load (load.go): a package loader driving `go list -json -export -deps`,
//     type-checking each package's source against toolchain export data —
//     the same resolution scheme `go vet` itself uses.
//   - Run (run.go): applies analyzers to a loaded package, honoring each
//     analyzer's package scope. Nothing suppresses a finding: a false
//     positive is fixed in the rule or in the code.
//
// The root package's TestStaticAnalysis runs the analyzers over every
// program package in tier-1 `go test ./...`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one check.
type Analyzer struct {
	// Name identifies the analyzer in findings. It must be a single
	// lower-case word.
	Name string

	// Scope restricts the analyzer to packages whose import path equals or
	// is under one of these prefixes. nil means every package.
	Scope []string

	// Exclude removes packages (same prefix semantics) from the scope even
	// when Scope matches. The unitsafe analyzer, for instance, excludes the
	// units package that defines the helpers it steers callers toward.
	Exclude []string

	// Run executes the analyzer on one package.
	Run func(*Pass)
}

// AppliesTo reports whether the analyzer's scope covers a package path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	for _, e := range a.Exclude {
		if underPath(pkgPath, e) {
			return false
		}
	}
	if a.Scope == nil {
		return true
	}
	for _, s := range a.Scope {
		if underPath(pkgPath, s) {
			return true
		}
	}
	return false
}

func underPath(pkg, prefix string) bool {
	return pkg == prefix || strings.HasPrefix(pkg, prefix+"/")
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info

	// report delivers one finding; Run installs it.
	report func(pos token.Pos, msg string)
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(pos, fmt.Sprintf(format, args...))
}
