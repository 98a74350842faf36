package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is a diagnostic resolved to a concrete position.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
	// Suppressed marks findings covered by a //ratelvet:ignore comment.
	// They are kept (flagged) so `-json` output and audits can show them;
	// text output and exit codes skip them.
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
}

// Run applies every analyzer whose scope covers the package and returns all
// findings sorted by position, suppressed ones flagged rather than dropped.
// Malformed suppression comments are returned as findings from the
// pseudo-analyzer "ratelvet" regardless of which analyzers ran; those are
// never suppressible.
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var raw []Diagnostic
	collect := func(d Diagnostic) { raw = append(raw, d) }

	set := newSuppressionSet(pkg, known, collect)

	for _, a := range analyzers {
		if !a.AppliesTo(pkg.PkgPath) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			d.Analyzer = name
			collect(d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
	}

	var out []Finding
	for _, d := range raw {
		// The suppression hygiene checks cannot themselves be suppressed.
		sup := d.Analyzer != "ratelvet" && set.suppressed(pkg.Fset, d.Analyzer, d.Pos)
		out = append(out, Finding{
			Analyzer:   d.Analyzer,
			Position:   pkg.Fset.Position(d.Pos),
			Message:    d.Message,
			Suppressed: sup,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Position, out[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
