// Package analysistest runs an analyzer over a testdata package and
// checks its diagnostics against `// want "regexp"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest. Testdata packages live under
// <analyzer>/testdata/src/<name> and may import real module packages (the
// go tool ignores testdata directories, so they never join the build).
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"ratel/internal/analysis"
)

var wantRE = regexp.MustCompile(`// want (.*)$`)

// quotedRE matches one want pattern: double-quoted or backtick-quoted.
var quotedRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// moduleExports lists the whole module once per test process and caches the
// export-data map used to resolve testdata imports.
var moduleExports = sync.OnceValues(func() (map[string]string, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	return analysis.Exports(root, "./...")
})

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysistest: no go.mod above the test's working directory")
		}
		dir = parent
	}
}

// Run loads testdata/src/<name> (relative to the calling test's package
// directory), applies the analyzer with its package scope lifted, and
// reports mismatches between the diagnostics and the `// want` comments.
func Run(t *testing.T, a *analysis.Analyzer, name string) {
	t.Helper()

	exports, err := moduleExports()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("analysistest: no Go files in %s", dir)
	}
	pkg, err := analysis.CheckPackage(name, files, exports)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.TypeError != nil {
		t.Fatalf("analysistest: testdata package %s does not type-check: %v", name, pkg.TypeError)
	}

	// Lift the scope: testdata package paths are synthetic.
	unscoped := *a
	unscoped.Scope = nil
	unscoped.Exclude = nil

	findings := analysis.Run(pkg, []*analysis.Analyzer{&unscoped})

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, fn := range files {
		data, err := os.ReadFile(fn)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			k := key{file: fn, line: i + 1}
			for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
				pat := q[1]
				if pat == "" {
					pat = q[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", fn, i+1, pat, err)
				}
				wants[k] = append(wants[k], re)
			}
		}
	}

	matched := make(map[key][]bool)
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, f := range findings {
		k := key{file: f.Position.Filename, line: f.Position.Line}
		ok := false
		for i, re := range wants[k] {
			if !matched[k][i] && re.MatchString(f.Message) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", f.Position, f.Analyzer, f.Message)
		}
	}
	var keys []key
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for i, re := range wants[k] {
			if !matched[k][i] {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
			}
		}
	}
}
