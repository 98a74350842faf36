package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one analyzer's report, resolved to a concrete position.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
}

// Run applies every analyzer whose scope covers the package and returns all
// findings sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, a := range analyzers {
		if !a.AppliesTo(pkg.PkgPath) {
			continue
		}
		pass := &Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TypesInfo: pkg.Info,
			report: func(pos token.Pos, msg string) {
				out = append(out, Finding{Analyzer: a.Name, Position: pkg.Fset.Position(pos), Message: msg})
			},
		}
		a.Run(pass)
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
	return out
}
