// Package analysis is ratelvet's static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface the repo's analyzers need. It exists because this module builds
// offline with no third-party dependencies; the API mirrors x/tools closely
// enough that migrating the analyzers there later is mechanical.
//
// The pieces:
//
//   - Analyzer / Pass / Diagnostic: the x/tools-shaped analyzer contract.
//   - Load (load.go): a package loader driving `go list -json -export -deps`,
//     type-checking each package's source against toolchain export data —
//     the same resolution scheme `go vet` itself uses.
//   - Run (run.go): applies analyzers to loaded packages, honoring each
//     analyzer's package scope and `//ratelvet:ignore` suppressions.
//   - suppress.go: the suppression-comment contract (a reason is mandatory;
//     unexplained or unknown suppressions are themselves diagnostics).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one ratelvet check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ratelvet:ignore comments. It must be a single lower-case word.
	Name string

	// Doc is a one-paragraph description ( `ratelvet help` prints it).
	Doc string

	// Scope restricts the analyzer to packages whose import path equals or
	// is under one of these prefixes. nil means every package.
	Scope []string

	// Exclude removes packages (same prefix semantics) from the scope even
	// when Scope matches. The unitsafe analyzer, for instance, excludes the
	// units package that defines the helpers it steers callers toward.
	Exclude []string

	// Run executes the analyzer on one package.
	Run func(*Pass) error
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
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver installs it.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by the driver
}
