// Package unitsafe keeps units.Bytes / bandwidth / duration arithmetic
// dimension-consistent. The planner's iteration-time model (Eqs. 1-5) and
// the NVMe throttles are all ratios of sized quantities; once a byte count
// is divided by a bandwidth "by hand", or scaled by a bare 1e9, the type
// system can no longer see the unit error that follows. It flags,
// everywhere except the units package itself:
//
//   - float64(bytes) / float64(bandwidth): use units.TransferTime (or
//     units.TransferDuration for a time.Duration)
//   - float64(flops) / float64(throughput): use units.ComputeTime
//   - a raw integer divided by a units bandwidth/throughput value: wrap the
//     count in its units type and use the helper
//   - multiplying or dividing a units-typed value by a bare magnitude
//     constant (1e9, 1e12, 1<<20/30/40): use the accessor methods
//     (GiBf, GBpsf, TFLOPf, Seconds.Duration, ...)
//   - units.Bytes(len(s)) where s's elements are wider than one byte: an
//     element count is not a byte count
package unitsafe

import (
	"go/ast"
	"go/constant"
	"go/types"

	"ratel/internal/analysis"
)

const unitsPkg = "ratel/internal/units"

// Analyzer is the unitsafe check.
var Analyzer = &analysis.Analyzer{
	Name:    "unitsafe",
	Exclude: []string{unitsPkg},
	Run:     run,
}

// ratioHelpers maps numerator/denominator unit types to the helper that
// divides them safely.
var ratioHelpers = []struct {
	num, den, helper string
}{
	{"Bytes", "BytesPerSecond", "units.TransferTime (or units.TransferDuration)"},
	{"FLOPs", "FLOPsPerSecond", "units.ComputeTime"},
}

// magnitudes are the bare constants that almost always mean a manual unit
// conversion. Smaller scalers (1e3, 1<<10) are too common as generic
// factors to flag.
var magnitudes = []int64{1e9, 1e12, 1 << 20, 1 << 30, 1 << 40}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkRatio(pass, n)
				checkMagnitude(pass, n)
			case *ast.CallExpr:
				checkElementCount(pass, n)
			}
			return true
		})
	}
}

// unitsOperand resolves e to the units-package named type of the value it
// converts or denotes, looking through float64(x) conversions.
func unitsOperand(pass *analysis.Pass, e ast.Expr) (typeName string, viaConversion bool) {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			if name := unitsTypeName(pass.TypesInfo.Types[call.Args[0]].Type); name != "" {
				return name, true
			}
			return "", false
		}
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return unitsTypeName(tv.Type), false
	}
	return "", false
}

func unitsTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != unitsPkg {
		return ""
	}
	return obj.Name()
}

// checkRatio flags manual size/bandwidth and flops/throughput divisions.
func checkRatio(pass *analysis.Pass, be *ast.BinaryExpr) {
	if be.Op.String() != "/" {
		return
	}
	den, denConv := unitsOperand(pass, be.Y)
	if den == "" {
		return
	}
	num, _ := unitsOperand(pass, be.X)
	for _, r := range ratioHelpers {
		if den != r.den {
			continue
		}
		switch {
		case num == r.num:
			pass.Reportf(be.Pos(), "manual %s/%s division: use %s", r.num, r.den, r.helper)
		case num == "" && denConv && isIntegerish(pass, be.X):
			pass.Reportf(be.Pos(), "raw count divided by units.%s: wrap the count in units.%s and use %s", r.den, r.num, r.helper)
		}
	}
}

// isIntegerish reports whether e is (a float64 conversion of) an integer
// expression — a raw count about to be divided by a bandwidth.
func isIntegerish(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			e = ast.Unparen(call.Args[0])
		}
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// checkMagnitude flags scaling a units-typed value by a bare unit-magnitude
// constant in place of the named accessor.
func checkMagnitude(pass *analysis.Pass, be *ast.BinaryExpr) {
	op := be.Op.String()
	if op != "*" && op != "/" {
		return
	}
	var unitSide ast.Expr
	switch {
	case isMagnitude(pass, be.Y):
		unitSide = be.X
	case op == "*" && isMagnitude(pass, be.X):
		unitSide = be.Y
	default:
		return
	}
	if name := findUnitsConversion(pass, unitSide); name != "" {
		pass.Reportf(be.Pos(), "scaling units.%s by a bare magnitude constant: use the units accessor methods (GiBf, GBpsf, TFLOPf, TFLOPSf, Seconds.Duration, ...)", name)
	}
}

// isMagnitude reports whether e is a constant equal to one of the
// unit-conversion magnitudes (including typed constants such as
// time.Second after a float64 conversion).
func isMagnitude(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	val := constant.ToFloat(tv.Value)
	if val.Kind() != constant.Float {
		return false
	}
	f, _ := constant.Float64Val(val)
	for _, m := range magnitudes {
		if f == float64(m) {
			return true
		}
	}
	return false
}

// findUnitsConversion reports the units type converted to a plain float
// anywhere inside e (e.g. the FLOPs buried in 3*float64(flops)/iter).
func findUnitsConversion(pass *analysis.Pass, e ast.Expr) string {
	var found string
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || found != "" {
			return found == ""
		}
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			if name := unitsTypeName(pass.TypesInfo.Types[call.Args[0]].Type); name != "" {
				found = name
			}
		}
		return found == ""
	})
	return found
}

// checkElementCount flags units.Bytes(len(s)) where s's elements are wider
// than one byte.
func checkElementCount(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || unitsTypeName(tv.Type) != "Bytes" {
		return
	}
	inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok || len(inner.Args) != 1 {
		return
	}
	id, ok := ast.Unparen(inner.Fun).(*ast.Ident)
	if !ok || id.Name != "len" {
		return
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	argT := pass.TypesInfo.Types[inner.Args[0]].Type
	if argT == nil {
		return
	}
	var elem types.Type
	switch t := argT.Underlying().(type) {
	case *types.Slice:
		elem = t.Elem()
	case *types.Array:
		elem = t.Elem()
	default:
		return // strings and other len()s are byte counts already
	}
	sizes := types.SizesFor("gc", "amd64")
	if b, ok := elem.Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
		return
	}
	pass.Reportf(call.Pos(), "units.Bytes(len(...)) of a []%s counts elements, not bytes: multiply by the element size (%d)", elem.String(), sizes.Sizeof(elem))
}
