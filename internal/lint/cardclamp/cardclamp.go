// Package cardclamp enforces the PR-1/PR-2 cardinality-sanitization
// contract: a float64 produced by an Estimate* call (a learned or
// traditional cardinality estimator) may be NaN, ±Inf or negative, so it
// must flow through metrics.ClampCard (or an equivalent sanitizer) before
// it participates in arithmetic or comparisons. Raw card math is how a
// single broken model poisons cost totals, plan ranking and whole
// experiment tables — see "Are We Ready For Learned Cardinality
// Estimation?" for the failure taxonomy.
package cardclamp

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lqo/internal/lint/analysis"
)

// Analyzer is the cardclamp invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "cardclamp",
	Doc: "estimator outputs must pass through metrics.ClampCard before " +
		"arithmetic or comparison (NaN/Inf-capable card math)",
	// Exempt: estimator implementations composing their own internal
	// estimates, the sanitizer itself, and infrastructure with no card
	// flow.
	Scope: analysis.Scope{Exclude: []string{
		"lqo/internal/lint",
		"lqo/internal/cardest",
		"lqo/internal/metrics",
		"lqo/internal/guard",
		"lqo/internal/ml",
		"lqo/internal/stats",
		"lqo/internal/sqlx",
		"lqo/internal/data",
		"lqo/internal/datagen",
	}},
	Run: run,
}

// isEstimateCall reports whether call invokes a cardinality producer: a
// function or method named Estimate or Estimate* returning exactly one
// float64.
func isEstimateCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || !strings.HasPrefix(fn.Name(), "Estimate") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	return analysis.IsFloat(sig.Results().At(0).Type())
}

// isSanitizerCall reports whether call is metrics.ClampCard or
// metrics.SanitizeCard (or the guard fallback wrapper, which clamps
// internally).
func isSanitizerCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	return analysis.IsPkgFunc(fn, "internal/metrics", "ClampCard") ||
		analysis.IsPkgFunc(fn, "internal/metrics", "SanitizeCard") ||
		analysis.IsPkgFunc(fn, "internal/guard", "SafeEstimate")
}

// mathPredicates are math functions that classify rather than compute;
// feeding them a raw card is how sanitizers are written.
var mathPredicates = map[string]bool{
	"IsNaN": true, "IsInf": true, "Signbit": true,
	"Float64bits": true, "Float32bits": true,
}

func isMathSink(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
		return false
	}
	return !mathPredicates[fn.Name()]
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// dirty maps a local variable bound to a raw estimate to the
	// position of the binding; clamped maps a variable to the position
	// after which it has been re-bound through the sanitizer.
	dirty := map[types.Object]token.Pos{}
	clamped := map[types.Object]token.Pos{}

	// Pass 1: bindings. x := e.Estimate(q) taints x; x = ClampCard(...)
	// clears it from that point on.
	pass.Inspect(func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			switch {
			case isEstimateCall(info, call):
				if _, seen := dirty[obj]; !seen {
					dirty[obj] = id.Pos()
				}
			case isSanitizerCall(info, call):
				if at, seen := clamped[obj]; !seen || as.End() < at {
					clamped[obj] = as.End()
				}
			}
		}
		return true
	})

	// Pass 2: sinks. A raw Estimate* call — or a still-dirty variable —
	// used as an operand of arithmetic/comparison or fed to math.* is a
	// violation.
	pass.InspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isEstimateCall(info, n) && sinkParent(info, stack) {
				pass.Reportf(n.Pos(), "raw estimator output used in card math; wrap the call in metrics.ClampCard first")
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				return true
			}
			birth, isDirty := dirty[obj]
			if !isDirty || n.Pos() <= birth {
				return true
			}
			if at, ok := clamped[obj]; ok && n.Pos() > at {
				return true
			}
			if passedToSanitizer(info, stack) {
				return true
			}
			if sinkParent(info, stack) {
				pass.Reportf(n.Pos(), "%s holds an unclamped estimate; pass it through metrics.ClampCard before arithmetic or comparison", n.Name)
			}
		}
		return true
	})
	return nil
}

// sinkParent reports whether the innermost non-paren ancestor uses the
// node as an operand of binary arithmetic/comparison, as either side of
// an arithmetic op-assignment (c *= f is c = c * f), or as an argument to
// a NaN-propagating math function.
func sinkParent(info *types.Info, stack []ast.Node) bool {
	parent, self := analysis.Parent(stack)
	switch p := parent.(type) {
	case *ast.BinaryExpr:
		switch p.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			return p.X == self || p.Y == self
		}
	case *ast.AssignStmt:
		switch p.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN:
			return true
		}
	case *ast.CallExpr:
		return isMathSink(info, p) && analysis.IsArg(p, self)
	}
	return false
}

// passedToSanitizer reports whether the identifier is an argument of a
// sanitizer call (a sanitizing use, never a violation).
func passedToSanitizer(info *types.Info, stack []ast.Node) bool {
	parent, self := analysis.Parent(stack)
	call, ok := parent.(*ast.CallExpr)
	return ok && isSanitizerCall(info, call) && analysis.IsArg(call, self)
}
