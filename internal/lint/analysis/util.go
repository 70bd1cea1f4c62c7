package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CalleeFunc resolves the statically-known callee of call: a package
// function, a concrete method, or an interface method. It returns nil
// for calls through function-typed variables, builtins and conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsBuiltinCall reports whether call invokes the named builtin
// (e.g. "panic", "len").
func IsBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// PathMatches reports whether pkgPath equals want or ends in "/"+want.
// Analyzers match packages by path suffix so the golden-file fixtures
// under testdata/src can stand in for the real tree (for example a stub
// "lqo/internal/metrics" matching want "internal/metrics").
func PathMatches(pkgPath, want string) bool {
	return pkgPath == want || strings.HasSuffix(pkgPath, "/"+want)
}

// IsPkgFunc reports whether fn is the named package-level function (or
// method — the receiver is not inspected) of a package whose import path
// matches pathSuffix per PathMatches.
func IsPkgFunc(fn *types.Func, pathSuffix, name string) bool {
	return fn != nil && fn.Name() == name && fn.Pkg() != nil &&
		PathMatches(fn.Pkg().Path(), pathSuffix)
}

// IsFloat reports whether t's core type is a floating-point type
// (including untyped float constants).
func IsFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// NamedIn reports whether t (after unwrapping pointers) is a named type
// called name declared in a package matching pathSuffix.
func NamedIn(t types.Type, pathSuffix, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name {
		return false
	}
	// Generic instantiations keep the origin's object; package may be
	// nil for error et al.
	return obj.Pkg() != nil && PathMatches(obj.Pkg().Path(), pathSuffix)
}

// EnclosingFunc returns the innermost FuncDecl or FuncLit in stack
// strictly above the final element, or nil.
func EnclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// Parent returns the innermost ancestor of stack's last node that is not
// a ParenExpr, with the child of it on the path: the node itself or its
// outermost enclosing parenthesis. parent is nil at the root.
func Parent(stack []ast.Node) (parent, child ast.Node) {
	child = stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		if p, ok := stack[i].(*ast.ParenExpr); ok {
			child = p
			continue
		}
		return stack[i], child
	}
	return nil, child
}

// IsArg reports whether n is one of call's arguments.
func IsArg(call *ast.CallExpr, n ast.Node) bool {
	for _, a := range call.Args {
		if a == n {
			return true
		}
	}
	return false
}

// RootIdent returns the identifier at the base of a chain of selector,
// index, slice, star, paren and type-assertion expressions — the
// variable a store through `v.f[i].g` ultimately reaches. Nil when the
// base is not an identifier (a call result, a literal).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// RootVar resolves the base of e to the *types.Var it names, or nil.
func RootVar(info *types.Info, e ast.Expr) *types.Var {
	id := RootIdent(e)
	if id == nil {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = info.Defs[id].(*types.Var)
	}
	return v
}

// MethodRecv returns the named type of fn's receiver (unwrapping one
// pointer), or nil for non-methods.
func MethodRecv(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// WalkShallow walks root without descending into nested function
// literals — the traversal analyzers use when a literal's effects must
// not be attributed to the enclosing function.
func WalkShallow(root ast.Node, fn func(n ast.Node) bool) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		return fn(n)
	})
}

// The executor's buffer pool and the set a run checks out of it, as poolret
// and bufown recognise them: by type name alone, so fixtures declare stand-ins.
var poolTypes = map[string]bool{"BatchPool": true, "runSet": true}

// poolPairs maps each pool method handing out a buffer to the method
// taking it back.
var poolPairs = map[string]string{
	"GetSel":  "PutSel",
	"GetKeys": "PutKeys",
}

// IsPoolType reports whether t, after unwrapping one pointer, is the
// pool or its run set.
func IsPoolType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && poolTypes[n.Obj().Name()]
}

// OnPoolType reports whether fn is a method of the pool or its run set.
func OnPoolType(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	n := MethodRecv(fn)
	return n != nil && IsPoolType(n)
}

// IsPooledBuffer reports whether t is a buffer shape the pool serves:
// row-id vectors ([]int32) and key scratch ([]uint64).
func IsPooledBuffer(t types.Type) bool {
	s := t.String()
	return s == "[]int32" || s == "[]uint64"
}

// IsPoolGet reports whether fn is a pool method handing out a buffer.
func IsPoolGet(fn *types.Func) bool {
	return OnPoolType(fn) && poolPairs[fn.Name()] != ""
}

// IsPoolPut reports whether fn is a pool method taking a buffer back.
func IsPoolPut(fn *types.Func) bool {
	if !OnPoolType(fn) {
		return false
	}
	for _, put := range poolPairs {
		if fn.Name() == put {
			return true
		}
	}
	return false
}
