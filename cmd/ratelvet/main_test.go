package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ratel/internal/analysis"
	"ratel/internal/analysis/registry"
)

// TestAnalyzersForVariantSelection checks the standalone split: test
// variants run only IncludeTests analyzers, plain packages skip those
// exactly when a variant exists (it re-covers the same sources).
func TestAnalyzersForVariantSelection(t *testing.T) {
	all := registry.All()
	withTests, without := 0, 0
	for _, a := range all {
		if a.IncludeTests {
			withTests++
		} else {
			without++
		}
	}
	if withTests == 0 {
		t.Fatal("registry has no IncludeTests analyzer; the variant split is untested")
	}

	variant := &analysis.Package{PkgPath: "ratel/x", ForTest: true}
	for _, a := range analyzersFor(variant, map[string]bool{"ratel/x": true}) {
		if !a.IncludeTests {
			t.Errorf("test variant ran %s, which does not include tests", a.Name)
		}
	}

	base := &analysis.Package{PkgPath: "ratel/x"}
	got := analyzersFor(base, map[string]bool{"ratel/x": true})
	if len(got) != without {
		t.Errorf("base-with-variant ran %d analyzers, want %d (IncludeTests ones belong to the variant)", len(got), without)
	}
	for _, a := range got {
		if a.IncludeTests {
			t.Errorf("base-with-variant ran %s twice (variant covers it)", a.Name)
		}
	}

	if got := analyzersFor(base, map[string]bool{}); len(got) != len(all) {
		t.Errorf("base-without-variant ran %d analyzers, want all %d", len(got), len(all))
	}
}

// TestAuditListsSuppressions runs the audit over a synthetic tree and
// checks it reports each suppression with its reason, skips testdata
// directories, and prints the count the suppress-gate reads.
func TestAuditListsSuppressions(t *testing.T) {
	dir := t.TempDir()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(os.WriteFile(filepath.Join(dir, "a.go"), []byte(`package a

//ratelvet:ignore gojoin worker joined by the shutdown path in close()
var x = 1

var y = 2 //ratelvet:ignore atomicmix guarded by mu, never touched concurrently
`), 0o666))
	must(os.MkdirAll(filepath.Join(dir, "testdata", "src"), 0o777))
	must(os.WriteFile(filepath.Join(dir, "testdata", "src", "b.go"), []byte(`package b

//ratelvet:ignore spanpair golden fixture, must not count
var z = 3
`), 0o666))

	out := captureStdout(t, func() {
		if code := runAudit([]string{dir}); code != 0 {
			t.Fatalf("runAudit = %d, want 0", code)
		}
	})
	for _, want := range []string{
		"a.go:3: gojoin: worker joined by the shutdown path in close()",
		"a.go:6: atomicmix: guarded by mu, never touched concurrently",
		"total: 2 suppression(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("audit output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "spanpair") {
		t.Errorf("audit counted a testdata suppression:\n%s", out)
	}
}

func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	f()
	w.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
