// Package guardsafe enforces the PR-2 failure-isolation contract:
// library code in internal/ must not panic (errors are returned, panics
// are reserved for guard's chaos injectors), and learned-component
// callbacks — the pilotscope Driver/Updater interface methods Init,
// Algo and Update — must be invoked inside a guard.Safe closure so a
// misbehaving driver can never take the engine down.
package guardsafe

import (
	"go/ast"
	"go/types"

	"lqo/internal/lint/analysis"
)

// Analyzer is the guardsafe invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "guardsafe",
	Doc: "no naked panic in internal/ library code; pilotscope driver " +
		"callbacks (Init/Algo/Update on the Driver/Updater interfaces) " +
		"must run inside guard.Safe",
	// cmd/ and examples/ may panic at top level; guard owns panic
	// isolation and the chaos injectors that panic on purpose; the lint
	// framework reports through errors already.
	Scope: analysis.Scope{
		Include: []string{"lqo/internal"},
		Exclude: []string{"lqo/internal/guard", "lqo/internal/lint"},
	},
	Run: run,
}

// callbackNames are the driver life-cycle methods the console must wrap.
var callbackNames = map[string]bool{"Init": true, "Algo": true, "Update": true}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	pass.InspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if analysis.IsBuiltinCall(info, call, "panic") {
			pass.Reportf(call.Pos(), "naked panic in library code; return an error (or route the failure through guard.Safe)")
			return true
		}
		if isDriverCallback(info, call) && !insideGuardSafe(info, stack) {
			fn := analysis.CalleeFunc(info, call)
			pass.Reportf(call.Pos(), "driver callback %s invoked outside guard.Safe; a panicking or hanging driver must never escape the guardrail", fn.Name())
		}
		return true
	})
	return nil
}

// isDriverCallback reports whether call invokes Init/Algo/Update through
// a Driver or Updater interface value (concrete-receiver calls, e.g. a
// driver delegating to its own Init, are not the guarded boundary).
func isDriverCallback(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !callbackNames[sel.Sel.Name] {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if _, isIface := recv.Underlying().(*types.Interface); !isIface {
		return false
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "Driver" || name == "Updater"
}

// insideGuardSafe reports whether the call site is lexically inside a
// function literal passed to guard.Safe or guard.SafeEstimate.
func insideGuardSafe(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 1; i-- {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		outer, ok := stack[i-1].(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := analysis.CalleeFunc(info, outer)
		if (analysis.IsPkgFunc(fn, "internal/guard", "Safe") ||
			analysis.IsPkgFunc(fn, "internal/guard", "SafeEstimate")) && analysis.IsArg(outer, lit) {
			return true
		}
	}
	return false
}
