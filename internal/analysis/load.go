package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed, type-checked package.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Info    *types.Info

	// TypeError holds the first type-checking failure, if any. Callers
	// report it rather than run analyzers on partial type information.
	TypeError error
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns with the go tool (from dir, typically the module
// root), parses each root package's non-test sources, and type-checks them
// against the toolchain's export data for every dependency — the same
// resolution `go vet` uses, so Load works offline and never re-typechecks
// the world from source.
func Load(dir string, patterns ...string) ([]*Package, error) {
	roots, exports, err := list(dir, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range roots {
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		var files []string
		for _, f := range lp.GoFiles {
			files = append(files, filepath.Join(lp.Dir, f))
		}
		pkg, err := CheckPackage(lp.ImportPath, files, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Exports returns the import path -> export data file map of patterns and
// all their dependencies, for CheckPackage.
func Exports(dir string, patterns ...string) (map[string]string, error) {
	_, exports, err := list(dir, patterns)
	return exports, err
}

// list runs `go list -export -deps` over patterns and returns the root
// packages and every listed package's export data file.
func list(dir string, patterns []string) ([]listedPackage, map[string]string, error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	var roots []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			roots = append(roots, lp)
		}
	}
	return roots, exports, nil
}

// CheckPackage parses and type-checks one package from source, resolving
// imports through export data files (import path -> file). It is shared by
// Load and the analysistest harness.
func CheckPackage(pkgPath string, filenames []string, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %v", fn, err)
		}
		files = append(files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		ef, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(ef)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	_, err := conf.Check(pkgPath, fset, files, info)
	return &Package{
		PkgPath:   pkgPath,
		Fset:      fset,
		Files:     files,
		Info:      info,
		TypeError: err,
	}, nil
}
