// Package poolret enforces the PR-9 buffer-pool contract: an operator
// that carries a *BatchPool must draw its hot-path buffers from the pool,
// not allocate them with make. A make of a row-id vector ([]int32: batch
// columns, selection vectors, match indices) or key scratch ([]uint64)
// inside a pooled operator's streaming methods silently reverts that path
// to per-call allocation — the pool keeps working, the allocs/row
// regression just never shows up until a profile does.
//
// The check fires on methods (and closures inside them) of any struct
// type holding a BatchPool field, except the literal Open and Close
// methods — the sanctioned places for cold-path setup and teardown
// allocation — and propagates through the same-package call graph: a
// helper function or method reachable from a streaming method is on the
// hot path too, so hiding the make one call deep changes nothing.
// Methods of BatchPool itself are the allocator and terminate the
// propagation. Documented cold paths opt out with
// //lqolint:ignore poolret <reason>.
package poolret

import (
	"go/ast"
	"go/types"
	"strings"

	"lqo/internal/lint/analysis"
)

// Analyzer is the pool-contract checker.
var Analyzer = &analysis.Analyzer{
	Name: "poolret",
	Doc: "methods of pool-carrying operators must get row-id vectors and key " +
		"scratch from the BatchPool, not make them (Open/Close exempt)",
	Run: run,
}

// poolPkgs are the packages whose operators carry pools.
var poolPkgs = []string{
	"lqo/internal/exec",
}

func applies(pkgPath string) bool {
	if !strings.HasPrefix(pkgPath, "lqo/") {
		return true
	}
	for _, p := range poolPkgs {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// pooledTypes are the buffer shapes the BatchPool serves; a make of one
// of these inside a pooled operator bypasses the pool.
var pooledTypes = map[string]bool{
	"[]int32":  true,
	"[]uint64": true,
}

// isBatchPool reports whether t (after unwrapping one pointer) is a named
// type called BatchPool. The name alone identifies it: fixtures declare
// their own BatchPool stand-in.
func isBatchPool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "BatchPool"
}

// carriesPool reports whether t (the method receiver's type) is a struct
// holding a BatchPool field — the mark of a pooled operator. BatchPool
// itself is not its own carrier, so the pool's cold-path allocations stay
// legal.
func carriesPool(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isBatchPool(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !applies(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo

	// Every function declared in this package, in file order (the order
	// keeps hot-path attribution deterministic when a helper is reachable
	// from several streaming methods).
	var order []*types.Func
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				order = append(order, obj)
				decls[obj] = fd
			}
		}
	}

	// Seed the hot set with the streaming methods of pool-carrying
	// operators: every method except the literal Open and Close.
	hot := map[*types.Func]string{} // fn -> streaming method it is reachable from
	var queue []*types.Func
	for _, obj := range order {
		fd := decls[obj]
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			continue
		}
		if name := fd.Name.Name; name == "Open" || name == "Close" {
			continue
		}
		if !carriesPool(info.TypeOf(fd.Recv.List[0].Type)) {
			continue
		}
		hot[obj] = fd.Name.Name
		queue = append(queue, obj)
	}

	// Propagate through same-package calls. A helper reachable only from
	// Open/Close never enters the set; BatchPool's own methods are the
	// allocator and stop the walk.
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.CalleeFunc(info, call)
			if callee == nil || decls[callee] == nil {
				return true
			}
			if _, seen := hot[callee]; seen {
				return true
			}
			if recv := analysis.MethodRecv(callee); recv != nil && recv.Obj().Name() == "BatchPool" {
				return true
			}
			hot[callee] = hot[fn]
			queue = append(queue, callee)
			return true
		})
	}

	for _, fn := range order {
		root := hot[fn]
		if root == "" {
			continue
		}
		fd := decls[fn]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !analysis.IsBuiltinCall(info, call, "make") {
				return true
			}
			tv, ok := info.Types[ast.Expr(call)]
			if !ok || tv.Type == nil {
				return true
			}
			ts := tv.Type.String()
			if !pooledTypes[ts] {
				return true
			}
			if fd.Name.Name == root {
				pass.Reportf(call.Pos(), "make(%s) in pooled operator method %s bypasses the BatchPool; Get it from the pool (or //lqolint:ignore poolret <reason> for a documented cold path)", ts, root)
			} else {
				pass.Reportf(call.Pos(), "make(%s) in %s, which is reachable from pooled streaming method %s, bypasses the BatchPool; Get it from the pool (or //lqolint:ignore poolret <reason> for a documented cold path)", ts, fd.Name.Name, root)
			}
			return true
		})
	}
	return nil
}
