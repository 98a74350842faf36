// Command ratelvet runs the repo's five domain-specific static analyzers
// (errdrop, gojoin, poolcapture, simdet, unitsafe — see DESIGN.md §8), each
// a scan of the typed syntax tree of a package's non-test sources.
//
// Standalone:
//
//	go run ./cmd/ratelvet ./...
//	go run ./cmd/ratelvet -json ./...
//
// Suppression audit (lists every //ratelvet:ignore with its reason):
//
//	go run ./cmd/ratelvet audit
//
// As a vet tool, speaking the cmd/go unitchecker protocol so findings join
// the normal vet cache and diagnostics pipeline:
//
//	go vet -vettool=$(go env GOPATH)/bin/ratelvet ./...
//
// Findings print as file:line:col: [analyzer] message; suppressed findings
// are omitted from text output but carried (flagged) in -json. Exit status
// is 0 when clean, 1 on usage or load errors, and 2 when unsuppressed
// findings exist (the same convention go vet's unitchecker uses).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ratel/internal/analysis"
	"ratel/internal/analysis/registry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// Protocol probes from cmd/go come first and must answer on stdout.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "--V=full":
			printVersion()
			return 0
		case args[0] == "-flags" || args[0] == "--flags":
			fmt.Println("[]") // no tool-specific flags
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runVetUnit(args[0])
		}
	}
	if len(args) > 0 && args[0] == "audit" {
		return runAudit(args[1:])
	}
	jsonOut := false
	var patterns []string
	for _, a := range args {
		switch {
		case a == "-json" || a == "--json":
			jsonOut = true
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "ratelvet: unknown flag %q (flags: -json; subcommands: audit; plus the vet protocol's -V=full and -flags)\n", a)
			return 1
		default:
			patterns = append(patterns, a)
		}
	}
	return runStandalone(patterns, jsonOut)
}

// printVersion answers go vet's -V=full buildid probe. The executable's
// own hash is the version: any rebuild invalidates cached vet results.
func printVersion() {
	name := filepath.Base(os.Args[0])
	name = strings.TrimSuffix(name, ".exe")
	sum := [sha256.Size]byte{}
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum = sha256.Sum256(data)
		}
	}
	fmt.Printf("%s version devel buildID=%02x\n", name, sum)
}

// jsonFinding is one finding in -json output.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// runStandalone loads the given patterns (default ./...) from the current
// directory and reports findings from every registered analyzer.
func runStandalone(patterns []string, jsonOut bool) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	exit := 0
	var all []jsonFinding
	for _, pkg := range pkgs {
		if pkg.TypeError != nil {
			fmt.Fprintf(os.Stderr, "ratelvet: %s: %v\n", pkg.PkgPath, pkg.TypeError)
			exit = 1
			continue
		}
		findings, err := analysis.Run(pkg, registry.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, f := range findings {
			if jsonOut {
				all = append(all, jsonFinding{
					File:       f.Position.Filename,
					Line:       f.Position.Line,
					Col:        f.Position.Column,
					Analyzer:   f.Analyzer,
					Message:    f.Message,
					Suppressed: f.Suppressed,
				})
			} else if !f.Suppressed {
				fmt.Println(f)
			}
			if !f.Suppressed && exit == 0 {
				exit = 2
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []jsonFinding{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintf(os.Stderr, "ratelvet: %v\n", err)
			return 1
		}
	}
	return exit
}

// runAudit walks the module's Go sources (testdata excluded — those files
// exercise analyzers, they are not production suppressions) and lists
// every //ratelvet:ignore comment with its analyzer and reason, sorted by
// position. The count is the suppression budget `make check` gates against
// lint-baseline.txt.
func runAudit(args []string) int {
	root := "."
	if len(args) == 1 {
		root = args[0]
	} else if len(args) > 1 {
		fmt.Fprintln(os.Stderr, "ratelvet: usage: ratelvet audit [dir]")
		return 1
	}
	type entry struct {
		path string
		s    analysis.Suppression
	}
	var entries []entry
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == ".git" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		for _, s := range analysis.CollectSuppressions(fset, f) {
			entries = append(entries, entry{path: path, s: s})
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ratelvet: audit: %v\n", err)
		return 1
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].path != entries[j].path {
			return entries[i].path < entries[j].path
		}
		return entries[i].s.Line < entries[j].s.Line
	})
	for _, e := range entries {
		reason := e.s.Reason
		if reason == "" {
			reason = "(missing reason)"
		}
		analyzer := e.s.Analyzer
		if analyzer == "" {
			analyzer = "(missing analyzer)"
		}
		fmt.Printf("%s:%d: %s: %s\n", e.path, e.s.Line, analyzer, reason)
	}
	fmt.Printf("total: %d suppression(s)\n", len(entries))
	return 0
}

// vetConfig is the subset of cmd/go's vet config file that ratelvet needs.
// cmd/go writes one per package and invokes the tool with its path as the
// sole argument.
type vetConfig struct {
	ImportPath                string
	Dir                       string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one package as directed by a vet config file. go vet
// hands a package that has tests over as its test variant (its sources plus
// its _test.go files, and an external _test package as a unit of its own);
// the analyzers read non-test sources only, as the standalone loader does,
// so the test files are dropped and a unit with nothing left writes an
// empty vetx.
func runVetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ratelvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ratelvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	var files []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	if cfg.VetxOnly || len(files) == 0 {
		// A dependency package (cmd/go only wants facts, and ratelvet
		// exports none) or an external test package.
		return writeVetx(cfg.VetxOutput)
	}

	// Source files import by the paths on the left of ImportMap; export
	// data is keyed by the canonical paths on the right. Flatten the two
	// hops into the single map CheckPackage resolves through.
	exports := make(map[string]string, len(cfg.PackageFile))
	for canon, file := range cfg.PackageFile {
		exports[canon] = file
	}
	for src, canon := range cfg.ImportMap {
		if file, ok := cfg.PackageFile[canon]; ok {
			exports[src] = file
		}
	}

	pkg, err := analysis.CheckPackage(cfg.ImportPath, cfg.Dir, files, exports)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ratelvet: %v\n", err)
		return 1
	}
	if pkg.TypeError != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(cfg.VetxOutput)
		}
		fmt.Fprintf(os.Stderr, "ratelvet: %s: %v\n", cfg.ImportPath, pkg.TypeError)
		return 1
	}

	findings, err := analysis.Run(pkg, registry.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "ratelvet: %v\n", err)
		return 1
	}
	exit := 0
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		fmt.Fprintln(os.Stderr, f)
		exit = 2
	}
	if code := writeVetx(cfg.VetxOutput); code != 0 {
		return code
	}
	return exit
}

// writeVetx records the (empty — ratelvet exports no facts) vetx output
// that cmd/go requires for its action cache.
func writeVetx(path string) int {
	if path == "" {
		return 0
	}
	if err := os.WriteFile(path, nil, 0o666); err != nil {
		fmt.Fprintf(os.Stderr, "ratelvet: %v\n", err)
		return 1
	}
	return 0
}
