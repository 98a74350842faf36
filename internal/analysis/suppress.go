package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// IgnorePrefix is the suppression-comment marker. The full form is
//
//	//ratelvet:ignore <analyzer> <reason>
//
// placed either on the flagged line or on its own line immediately above.
// The reason is mandatory: a suppression that does not say why it is safe
// is rejected with a diagnostic of its own, as is a suppression naming an
// analyzer that does not exist (a typo would otherwise silently disable
// nothing).
const IgnorePrefix = "ratelvet:ignore"

// Suppression is one parsed //ratelvet:ignore comment. The `ratelvet
// audit` subcommand lists them tree-wide; run.go indexes them per package.
type Suppression struct {
	Line     int
	Analyzer string
	Reason   string
	Pos      token.Pos
}

// CollectSuppressions parses every ignore comment in a file, malformed
// ones included (empty Analyzer or Reason — the audit shows them too).
func CollectSuppressions(fset *token.FileSet, f *ast.File) []Suppression {
	var out []Suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, IgnorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, IgnorePrefix))
			fields := strings.Fields(rest)
			s := Suppression{Line: fset.Position(c.Pos()).Line, Pos: c.Pos()}
			if len(fields) > 0 {
				s.Analyzer = fields[0]
			}
			if len(fields) > 1 {
				s.Reason = strings.Join(fields[1:], " ")
			}
			out = append(out, s)
		}
	}
	return out
}

// suppressionSet indexes a package's suppressions for diagnostic filtering.
type suppressionSet struct {
	// byFileLine maps file -> line -> analyzers suppressed on that line.
	byFileLine map[string]map[int][]string
}

// newSuppressionSet gathers a package's suppressions and reports the
// malformed ones (missing reason, unknown analyzer) through report.
func newSuppressionSet(pkg *Package, known map[string]bool, report func(Diagnostic)) suppressionSet {
	set := suppressionSet{byFileLine: make(map[string]map[int][]string)}
	for _, f := range pkg.Files {
		for _, s := range CollectSuppressions(pkg.Fset, f) {
			switch {
			case s.Analyzer == "":
				report(Diagnostic{Pos: s.Pos, Analyzer: "ratelvet",
					Message: "ratelvet:ignore needs an analyzer name and a reason"})
				continue
			case known != nil && !known[s.Analyzer]:
				report(Diagnostic{Pos: s.Pos, Analyzer: "ratelvet",
					Message: "ratelvet:ignore names unknown analyzer " + strconv(s.Analyzer)})
				continue
			case s.Reason == "":
				report(Diagnostic{Pos: s.Pos, Analyzer: "ratelvet",
					Message: "ratelvet:ignore " + s.Analyzer + " needs a reason (//ratelvet:ignore " + s.Analyzer + " <why this is safe>)"})
				continue
			}
			file := pkg.Fset.Position(s.Pos).Filename
			lines := set.byFileLine[file]
			if lines == nil {
				lines = make(map[int][]string)
				set.byFileLine[file] = lines
			}
			// The suppression covers its own line and the next one, so it
			// works both trailing a statement and on the line above it.
			lines[s.Line] = append(lines[s.Line], s.Analyzer)
			lines[s.Line+1] = append(lines[s.Line+1], s.Analyzer)
		}
	}
	return set
}

func strconv(s string) string { return "\"" + s + "\"" }

// suppressed reports whether a diagnostic at pos is covered by an ignore
// comment naming the analyzer.
func (set suppressionSet) suppressed(fset *token.FileSet, name string, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, a := range set.byFileLine[p.Filename][p.Line] {
		if a == name {
			return true
		}
	}
	return false
}
