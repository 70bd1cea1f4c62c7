// Package errflow bans silent error drops in the subsystems where a
// swallowed error corrupts state instead of surfacing: the executor
// (a lost Close error hides a short write of spill state), the serving
// layer, the optimizer and the adaptation loop. Two shapes are flagged:
// a call whose only result is an error used as a bare statement (or
// behind go/defer, where the error vanishes with the goroutine or the
// frame), and an error explicitly discarded into the blank identifier.
// Legitimate drops take a //lqolint:ignore errflow directive with a
// reason, which keeps every silent drop greppable.
package errflow

import (
	"go/ast"
	"go/types"

	"lqo/internal/lint/analysis"
)

// Analyzer is the dropped-error checker.
var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc: "no error-valued result may be dropped via _ or an ignored " +
		"call in exec/serve/feedback/opt/adapt; propagate it or suppress with a reason",
	Scope: analysis.Scope{Include: []string{
		"lqo/internal/exec",
		"lqo/internal/serve",
		"lqo/internal/feedback",
		"lqo/internal/opt",
		"lqo/internal/adapt",
	}},
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	pass.Inspect(func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && onlyResultIsError(info, call) {
				pass.Reportf(s.Pos(), "error returned by %s is silently discarded; handle it or add //lqolint:ignore errflow with a reason", calleeName(info, call))
			}
		case *ast.DeferStmt:
			if onlyResultIsError(info, s.Call) {
				pass.Reportf(s.Pos(), "deferred %s drops its error; capture it in a closure (e.g. into a named return) or suppress with a reason", calleeName(info, s.Call))
			}
		case *ast.GoStmt:
			if onlyResultIsError(info, s.Call) {
				pass.Reportf(s.Pos(), "goroutine result of %s drops its error; route it through a channel or suppress with a reason", calleeName(info, s.Call))
			}
		case *ast.AssignStmt:
			checkBlankDrops(pass, s)
		}
		return true
	})
	return nil
}

// onlyResultIsError reports whether call's signature returns exactly one
// value of type error. Multi-result functions (fmt.Fprintf and friends)
// are out of scope: flagging them drowns the signal.
func onlyResultIsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	return t != nil && isErrorType(t)
}

// checkBlankDrops flags error values assigned into the blank identifier:
// `_ = f()` when f returns error, and `v, _ := g()` when the blanked
// position is error-typed. Boolean commas-ok forms (map reads, type
// assertions) type as bool and pass through untouched.
func checkBlankDrops(pass *analysis.Pass, s *ast.AssignStmt) {
	info := pass.TypesInfo
	// Tuple form: positions come from the call's result tuple.
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		tup, ok := info.TypeOf(call).(*types.Tuple)
		if !ok || tup.Len() != len(s.Lhs) {
			return
		}
		for i, lhs := range s.Lhs {
			if isBlank(lhs) && isErrorType(tup.At(i).Type()) {
				pass.Reportf(lhs.Pos(), "error result of %s is discarded into _; propagate it or suppress with a reason", calleeName(info, call))
			}
		}
		return
	}
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		if !isBlank(lhs) {
			continue
		}
		if call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr); ok && onlyResultIsError(info, call) {
			pass.Reportf(lhs.Pos(), "error result of %s is discarded into _; propagate it or suppress with a reason", calleeName(info, call))
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.CalleeFunc(info, call); fn != nil {
		return fn.Name()
	}
	return "the call"
}
