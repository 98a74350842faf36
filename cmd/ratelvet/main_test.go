package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

//ratelvet:ignore simdet wall-clock read for a progress line, not a schedule
var x = 1

var y = 2 //ratelvet:ignore errdrop best-effort cleanup, the caller has already failed
`), 0o666))
	must(os.MkdirAll(filepath.Join(dir, "testdata", "src"), 0o777))
	must(os.WriteFile(filepath.Join(dir, "testdata", "src", "b.go"), []byte(`package b

//ratelvet:ignore unitsafe golden fixture, must not count
var z = 3
`), 0o666))

	out := captureStdout(t, func() {
		if code := runAudit([]string{dir}); code != 0 {
			t.Fatalf("runAudit = %d, want 0", code)
		}
	})
	for _, want := range []string{
		"a.go:3: simdet: wall-clock read for a progress line, not a schedule",
		"a.go:6: errdrop: best-effort cleanup, the caller has already failed",
		"total: 2 suppression(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("audit output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "unitsafe") {
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
