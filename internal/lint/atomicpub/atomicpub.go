// Package atomicpub enforces the PR-1/PR-4 publication contract: a
// struct field that is ever accessed through sync/atomic — either by
// having an atomic.* type (zone maps, MinMax caches) or by
// having its address passed to an atomic function (PlansConsidered) —
// must be accessed atomically everywhere. One plain read or write next
// to atomic ones is a data race the race detector only catches when the
// interleaving happens to occur.
package atomicpub

import (
	"go/ast"
	"go/token"
	"go/types"

	"lqo/internal/lint/analysis"
)

// Analyzer is the atomicpub invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "atomicpub",
	Doc: "fields accessed via sync/atomic (atomic.* typed fields, or " +
		"fields whose address feeds atomic ops) must never be read or " +
		"written plainly",
	Scope: analysis.Scope{
		Include: []string{"lqo/internal"},
		Exclude: []string{"lqo/internal/lint"},
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// atomicTyped: fields whose declared type lives in sync/atomic
	// (atomic.Pointer[T], atomic.Int64, atomic.Bool, ...).
	atomicTyped := map[types.Object]bool{}
	// atomicOpped: plain-typed fields whose address is passed to a
	// sync/atomic function somewhere in the package.
	atomicOpped := map[types.Object]bool{}

	for _, name := range pass.Pkg.Scope().Names() {
		tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isAtomicType(f.Type()) {
				atomicTyped[f] = true
			}
		}
	}

	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAtomicPkgCall(info, call) {
			return true
		}
		for _, a := range call.Args {
			u, ok := ast.Unparen(a).(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				continue
			}
			if f := fieldOf(info, u.X); f != nil && !isAtomicType(f.Type()) {
				atomicOpped[f] = true
			}
		}
		return true
	})

	pass.InspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f := fieldOf(info, sel)
		if f == nil {
			return true
		}
		switch {
		case atomicTyped[f]:
			if !isMethodReceiver(stack) && !isAddressed(stack) {
				pass.Reportf(sel.Pos(), "atomic field %s used as a plain value; atomic.* values must only be touched through their methods", f.Name())
			}
		case atomicOpped[f]:
			if !isAtomicOpOperand(info, stack) {
				pass.Reportf(sel.Pos(), "plain access to %s, which is published with sync/atomic elsewhere; every access must go through atomic ops", f.Name())
			}
		}
		return true
	})
	return nil
}

func isAtomicType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

func isAtomicPkgCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
		fn.Type().(*types.Signature).Recv() == nil
}

// fieldOf returns the struct-field object a selector expression selects,
// or nil when expr is not a field selection.
func fieldOf(info *types.Info, expr ast.Expr) *types.Var {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// isMethodReceiver reports whether the selector is the receiver of a
// method call: x.f.Load() — the selector x.f appears as the X of another
// selector that is the Fun of a call.
func isMethodReceiver(stack []ast.Node) bool {
	self := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 1; i-- {
		p, ok := stack[i].(*ast.ParenExpr)
		if ok {
			self = p
			continue
		}
		outer, ok := stack[i].(*ast.SelectorExpr)
		if !ok || outer.X != self {
			return false
		}
		call, ok := stack[i-1].(*ast.CallExpr)
		return ok && call.Fun == outer
	}
	return false
}

// isAddressed reports whether the selector is immediately address-taken
// (&x.f), which preserves atomicity when the pointer feeds atomic ops or
// a helper taking *atomic.T.
func isAddressed(stack []ast.Node) bool {
	parent, self := analysis.Parent(stack)
	u, ok := parent.(*ast.UnaryExpr)
	return ok && u.Op == token.AND && u.X == self
}

// isAtomicOpOperand reports whether the selector appears as &x.f inside
// a sync/atomic call.
func isAtomicOpOperand(info *types.Info, stack []ast.Node) bool {
	self := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			self = p
			continue
		case *ast.UnaryExpr:
			if p.Op != token.AND || p.X != self {
				return false
			}
			self = p
			continue
		case *ast.CallExpr:
			return isAtomicPkgCall(info, p)
		default:
			return false
		}
	}
	return false
}
