package analysis_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ratel/internal/analysis"
)

// fakeAnalyzer flags every return statement, giving the suppression tests a
// deterministic diagnostic to silence.
var fakeAnalyzer = &analysis.Analyzer{
	Name: "fake",
	Doc:  "flags every return statement (test analyzer)",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if r, ok := n.(*ast.ReturnStmt); ok {
					pass.Reportf(r.Pos(), "return statement")
				}
				return true
			})
		}
		return nil
	},
}

// check loads src as a single-file package and runs fakeAnalyzer over it.
func check(t *testing.T, src string) []analysis.Finding {
	t.Helper()
	dir := t.TempDir()
	fn := filepath.Join(dir, "p.go")
	if err := os.WriteFile(fn, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.CheckPackage("p", dir, []string{fn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.TypeError != nil {
		t.Fatalf("test source does not type-check: %v", pkg.TypeError)
	}
	findings, err := analysis.Run(pkg, []*analysis.Analyzer{fakeAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func messages(fs []analysis.Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, "["+f.Analyzer+"] "+f.Message)
	}
	return out
}

func TestSuppressionWithReasonSilencesFinding(t *testing.T) {
	findings := check(t, `package p
func a() int {
	return 1 //ratelvet:ignore fake verified by hand in TestSuppression
}
func b() int {
	//ratelvet:ignore fake covers the next line too
	return 2
}
`)
	for _, f := range findings {
		if !f.Suppressed {
			t.Errorf("explained suppressions should silence the findings, got %v", f)
		}
	}
	if len(findings) != 2 {
		t.Errorf("suppressed findings must still be returned (flagged) for -json/audit, got %v", messages(findings))
	}
}

func TestSuppressionWithoutReasonIsRejected(t *testing.T) {
	findings := check(t, `package p
func a() int {
	return 1 //ratelvet:ignore fake
}
`)
	// The unexplained suppression must NOT silence the finding, and must
	// draw a diagnostic of its own.
	var sawFinding, sawRejection bool
	for _, f := range findings {
		if f.Analyzer == "fake" {
			sawFinding = true
		}
		if f.Analyzer == "ratelvet" && strings.Contains(f.Message, "needs a reason") {
			sawRejection = true
		}
	}
	if !sawFinding {
		t.Errorf("a reason-less suppression must not silence the finding; findings: %v", messages(findings))
	}
	if !sawRejection {
		t.Errorf("a reason-less suppression must be rejected with its own diagnostic; findings: %v", messages(findings))
	}
}

func TestSuppressionNamingUnknownAnalyzerIsRejected(t *testing.T) {
	findings := check(t, `package p
func a() int {
	return 1 //ratelvet:ignore fakr typo should not silently disable nothing
}
`)
	var sawFinding, sawRejection bool
	for _, f := range findings {
		if f.Analyzer == "fake" {
			sawFinding = true
		}
		if f.Analyzer == "ratelvet" && strings.Contains(f.Message, "unknown analyzer") {
			sawRejection = true
		}
	}
	if !sawFinding || !sawRejection {
		t.Errorf("unknown analyzer name must be rejected and not suppress; findings: %v", messages(findings))
	}
}

func TestBareSuppressionIsRejected(t *testing.T) {
	findings := check(t, `package p
func a() int {
	return 1 //ratelvet:ignore
}
`)
	var sawRejection bool
	for _, f := range findings {
		if f.Analyzer == "ratelvet" && strings.Contains(f.Message, "needs an analyzer name") {
			sawRejection = true
		}
	}
	if !sawRejection {
		t.Errorf("bare ratelvet:ignore must be rejected; findings: %v", messages(findings))
	}
}
