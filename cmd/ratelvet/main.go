// Command ratelvet runs the repo's three domain-specific static analyzers
// (errdrop, simdet, unitsafe — see DESIGN.md §8), each a scan of the typed
// syntax tree of a package's non-test sources:
//
//	go run ./cmd/ratelvet ./...
//	go run ./cmd/ratelvet -json ./...
//
// Suppression audit (lists every //ratelvet:ignore with its reason):
//
//	go run ./cmd/ratelvet audit
//
// Findings print as file:line:col: [analyzer] message; suppressed findings
// are omitted from text output but carried (flagged) in -json. Exit status
// is 0 when clean, 1 on usage or load errors, and 2 when unsuppressed
// findings exist (the same convention go vet's unitchecker uses).
package main

import (
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
			fmt.Fprintf(os.Stderr, "ratelvet: unknown flag %q (flags: -json; subcommands: audit)\n", a)
			return 1
		default:
			patterns = append(patterns, a)
		}
	}
	return runStandalone(patterns, jsonOut)
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
