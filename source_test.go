package ratel_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"ratel/internal/analysis"
	"ratel/internal/analysis/errdrop"
	"ratel/internal/analysis/simdet"
	"ratel/internal/analysis/unitsafe"
)

// sourceFile is one parsed .go file of the module; path is slash-separated
// and relative to the module root.
type sourceFile struct {
	path string
	f    *ast.File
}

func (s sourceFile) isTest() bool { return strings.HasSuffix(s.path, "_test.go") }

// moduleSources parses every .go file in the module, tests included, outside
// testdata and hidden directories.
func moduleSources(t *testing.T) (*token.FileSet, []sourceFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{filepath.ToSlash(p), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// importName is the name file f uses for the package at importPath, or ""
// when f does not import it.
func importName(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		if imp.Path.Value != `"`+importPath+`"` {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path.Base(importPath)
	}
	return ""
}

// qualifiedCalls calls visit for every call pkg.Name(...) in n, pkg being
// the file's name for an imported package.
func qualifiedCalls(n ast.Node, pkg string, visit func(call *ast.CallExpr, name string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					visit(call, sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// TestAtomicsAreTyped: no .go file in the module, tests included, calls a
// sync/atomic free function (atomic.AddInt64, ...). Shared counters are
// typed atomics (atomic.Int64, ...), which have no plain read or write, so
// a plain access racing an atomic one cannot be written.
func TestAtomicsAreTyped(t *testing.T) {
	fset, files := moduleSources(t)
	for _, s := range files {
		if name := importName(s.f, "sync/atomic"); name != "" {
			qualifiedCalls(s.f, name, func(call *ast.CallExpr, fn string) {
				t.Errorf("%s: %s.%s: use a typed atomic", fset.Position(call.Pos()), name, fn)
			})
		}
	}
}

// TestGoStatementsOnlyInJoin: no non-test file outside internal/join and
// cmd/ has a go statement. Every goroutine of the library is started by a
// join.Group its owner holds, so the owner's Close can Wait for it; that
// each Close does is behaviour, which the owners' leak checks pin (DESIGN
// §8). cmd/'s goroutines — rateltrain's debug server and signal handler —
// live as long as the process.
func TestGoStatementsOnlyInJoin(t *testing.T) {
	fset, files := moduleSources(t)
	for _, s := range files {
		if s.isTest() || strings.HasPrefix(s.path, "internal/join/") || strings.HasPrefix(s.path, "cmd/") {
			continue
		}
		ast.Inspect(s.f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement: start the goroutine with a join.Group its owner waits for", fset.Position(g.Pos()))
			}
			return true
		})
	}
}

// fanOutCovers names, for every pool fan-out in the module's non-test code
// (a pool.Run or pool.For call outside the pool package, keyed by its file
// and enclosing function), the test in the same package that runs the
// fanned-out body on worker goroutines: it pins
// tensor.SetParallelism to at least 2 at a size past the inline cutoff. A
// body that writes a captured variable is then a race `make race` reports.
var fanOutCovers = map[string]string{
	"internal/nn/attention.go forEachHead": "TestAttentionBitIdenticalToFullSquare",
	"internal/opt/opt.go AdamStep":         "TestAdamWireBitIdenticalToStaged",
	"internal/opt/opt.go adamDelta":        "TestAdamWireBitIdenticalToStaged",
	"internal/tensor/tensor.go dotRows":    "TestKernelsBitIdenticalAcrossThreads",
	"internal/tensor/tensor.go gemm":       "TestKernelsBitIdenticalAcrossThreads",
}

// TestPoolFanOutsHaveCoveringTests: every fan-out site is in fanOutCovers,
// every entry there is a site, and each names a test that exists in the
// site's package.
func TestPoolFanOutsHaveCoveringTests(t *testing.T) {
	fset, files := moduleSources(t)
	sites := map[string]bool{}
	tests := map[string]bool{} // "<dir> <TestName>"
	for _, s := range files {
		dir := path.Dir(s.path)
		name := importName(s.f, "ratel/internal/tensor/pool")
		for _, d := range s.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if s.isTest() {
				tests[dir+" "+fn.Name.Name] = true
				continue
			}
			if name == "" || fn.Body == nil {
				continue
			}
			qualifiedCalls(fn.Body, name, func(call *ast.CallExpr, sel string) {
				if sel != "Run" && sel != "For" {
					return
				}
				site := s.path + " " + fn.Name.Name
				sites[site] = true
				if fanOutCovers[site] == "" {
					t.Errorf("%s: %s.%s in %s: name its covering test in fanOutCovers", fset.Position(call.Pos()), name, sel, fn.Name.Name)
				}
			})
		}
	}
	for site, test := range fanOutCovers {
		if !sites[site] {
			t.Errorf("fanOutCovers lists %q, which fans out no more", site)
		}
		if dir := path.Dir(strings.Fields(site)[0]); !tests[dir+" "+test] {
			t.Errorf("fanOutCovers: %s has no %s", dir, test)
		}
	}
}

// TestStaticAnalysis runs the module's three analyzers — errdrop, simdet and
// unitsafe (DESIGN §8) — over every program package and fails on any finding
// and on any package that does not type-check. The program packages are all
// but ratel/bench, the benchmark harness (ROADMAP item 1a). Nothing
// suppresses a finding: a false positive is fixed in the rule or in the
// code.
//
// The package set is moduleSources' walk, and the loader's view (go list, a
// subprocess go test cannot see into) must agree with it: go test caches a
// pass keyed by the files and directories the test itself reads, so a new
// package or an edited file reruns the analyzers.
func TestStaticAnalysis(t *testing.T) {
	_, files := moduleSources(t)
	walked := map[string]bool{}
	for _, s := range files {
		if !s.isTest() {
			walked[path.Join("ratel", path.Dir(s.path))] = true
		}
	}
	delete(walked, "ratel/bench")

	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*analysis.Analyzer{errdrop.Analyzer, simdet.Analyzer, unitsafe.Analyzer}
	for _, pkg := range pkgs {
		if pkg.PkgPath == "ratel/bench" || len(pkg.Files) == 0 { // a test-only package has no sources
			continue
		}
		if !walked[pkg.PkgPath] {
			t.Errorf("%s: go list loads it, the walk did not find it", pkg.PkgPath)
		}
		delete(walked, pkg.PkgPath)
		if pkg.TypeError != nil {
			t.Errorf("%s: %v", pkg.PkgPath, pkg.TypeError)
			continue
		}
		for _, f := range analysis.Run(pkg, analyzers) {
			t.Error(f)
		}
	}
	for p := range walked {
		t.Errorf("%s: the walk found it, go list did not load it", p)
	}
}
