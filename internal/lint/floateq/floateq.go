// Package floateq flags == and != between floating-point values in the
// metric and cost packages, where binary float comparison silently
// misbehaves: equal-cost plans compare unequal after reassociated
// arithmetic, NaN compares unequal to itself, and tie-breaking becomes
// platform-dependent. Compare with an epsilon, compare ordered (< / >),
// or suppress with a reasoned //lqolint:ignore when exact bit equality
// is genuinely intended. The NaN self-test idiom `x != x` is recognized
// and allowed.
package floateq

import (
	"go/ast"
	"go/token"
	"go/types"

	"lqo/internal/lint/analysis"
)

// Analyzer is the floateq invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc:  "no ==/!= on floating-point values in metrics/cost/costmodel",
	Scope: analysis.Scope{Include: []string{
		"lqo/internal/metrics",
		"lqo/internal/cost",
		"lqo/internal/costmodel",
	}},
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	pass.Inspect(func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if !analysis.IsFloat(info.TypeOf(be.X)) || !analysis.IsFloat(info.TypeOf(be.Y)) {
			return true
		}
		// Constant-folded comparisons (two untyped constants) are exact.
		if info.Types[be.X].Value != nil && info.Types[be.Y].Value != nil {
			return true
		}
		if isNaNIdiom(info, be) {
			return true
		}
		pass.Reportf(be.Pos(), "floating-point %s comparison; use an epsilon, an ordered comparison, or a reasoned ignore if bit equality is intended", be.Op)
		return true
	})
	return nil
}

// isNaNIdiom recognizes x != x / x == x over the same side-effect-free
// operand — the portable NaN test.
func isNaNIdiom(info *types.Info, be *ast.BinaryExpr) bool {
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	ix, ok1 := x.(*ast.Ident)
	iy, ok2 := y.(*ast.Ident)
	if ok1 && ok2 {
		return info.Uses[ix] != nil && info.Uses[ix] == info.Uses[iy]
	}
	return false
}
