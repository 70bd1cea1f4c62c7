// Package ctxprop enforces the cancellation contract: the executor,
// optimizer, learned-planner, middleware and bench layers are
// context-aware end to end, so library code in those packages must
// thread the caller's context rather than minting
// context.Background()/TODO() (which silently detaches work from
// deadlines and makes a hanging learned component unkillable).
// Concretely:
//
//  1. no context.Background()/context.TODO() in the listed library
//     packages (main packages and tests may create root contexts);
//  2. a context.Context parameter must come first in the parameter list;
//  3. a function that accepts a context and performs work (calls or
//     loops) must actually use it — forward it or check ctx.Err().
package ctxprop

import (
	"go/ast"
	"go/types"

	"lqo/internal/lint/analysis"
)

// Analyzer is the ctxprop invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "ctxprop",
	Doc: "library packages must propagate context.Context: no " +
		"Background()/TODO(), ctx parameter first, accepted contexts " +
		"forwarded or checked",
	// The context-aware layers, plumbed end to end: everything
	// reachable from a query deadline must stay reachable.
	Scope: analysis.Scope{Include: []string{
		"lqo/internal/plan",
		"lqo/internal/exec",
		"lqo/internal/opt",
		"lqo/internal/learnedopt",
		"lqo/internal/joinorder",
		"lqo/internal/guard",
		"lqo/internal/pilotscope",
		"lqo/internal/bench",
		"lqo/internal/serve",
		"lqo/internal/feedback",
		"lqo/internal/adapt",
	}},
	Run: run,
}

func isContextType(t types.Type) bool {
	return analysis.NamedIn(t, "context", "Context")
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// Rule 1: no fresh root contexts in library code.
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if analysis.IsPkgFunc(fn, "context", "Background") ||
			analysis.IsPkgFunc(fn, "context", "TODO") {
			pass.Reportf(call.Pos(), "context.%s() in a library package detaches work from the caller's deadline; accept and forward a ctx instead", fn.Name())
		}
		return true
	})

	// Rules 2 and 3 inspect function declarations.
	pass.Inspect(func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Type.Params == nil {
			return true
		}
		var ctxIdents []*ast.Ident
		idx := 0
		for _, field := range fd.Type.Params.List {
			isCtx := isContextType(info.TypeOf(field.Type))
			for _, name := range field.Names {
				if isCtx {
					if idx != 0 {
						pass.Reportf(name.Pos(), "context.Context must be the first parameter of %s", fd.Name.Name)
					}
					if name.Name != "_" {
						ctxIdents = append(ctxIdents, name)
					}
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
		if len(ctxIdents) == 0 || fd.Body == nil {
			return true
		}
		// Rule 3: the context must be used if the body does real work.
		used, works := false, false
		for _, id := range ctxIdents {
			obj := info.Defs[id]
			if obj == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if info.Uses[n] == obj {
						used = true
					}
				case *ast.CallExpr, *ast.ForStmt, *ast.RangeStmt:
					works = true
				}
				return !used
			})
			if used {
				break
			}
		}
		if !used && works {
			pass.Reportf(fd.Name.Pos(), "%s accepts a context but never forwards or checks it; cancellation stops here", fd.Name.Name)
		}
		return true
	})
	return nil
}
