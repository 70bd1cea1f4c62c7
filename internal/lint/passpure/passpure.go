// Package passpure proves the RewritePass purity contract statically: a
// pass's Rewrite body may not store through any pointer reachable from
// its inputs — the plan parameter (*Node) or the *PassContext — unless
// the value it is writing through flowed out of a recognized Clone. The
// fixpoint pipeline shares unrewritten subtrees across passes and caches
// rewritten plans by key, so an in-place mutation corrupts plans that
// other sessions already hold; the pointer-graph tests catch the passes
// they run, passpure catches every pass on every build.
//
// The analysis is a forward taint problem on the CFG (solver.go): the
// *Node and *PassContext parameters seed the taint set, assignment
// propagates taint through aliases and derived pointers, and a call to
// anything named Clone launders its result. The common Walk idiom is
// modeled precisely: in `c.Walk(func(m *Node) { ... })` the callback's
// node parameter inherits the taint of the receiver c, so walking a
// clone is free to mutate while walking the input is flagged.
package passpure

import (
	"go/ast"
	"go/types"

	"lqo/internal/lint/analysis"
)

// Analyzer is the rewrite-pass purity checker.
var Analyzer = &analysis.Analyzer{
	Name: "passpure",
	Doc: "a RewritePass Rewrite body must not store through pointers " +
		"reachable from its plan or context parameters; clone first " +
		"(values flowing from Clone are exempt)",
	Scope: analysis.Scope{Include: []string{"lqo/internal/plan"}},
	Run:   run,
}

// fact is the taint set: every variable in it may alias the input.
type fact = analysis.Facts[bool]

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name != "Rewrite" {
				continue
			}
			seeds := seedParams(pass.TypesInfo, fd)
			if len(seeds) == 0 {
				continue // not a pass body (no plan/context parameter)
			}
			checkRewrite(pass, fd.Body, seeds)
		}
	}
	return nil
}

// seedParams returns the taint sources: parameters typed *Node, []*Node
// or *PassContext (matched by type name so fixtures can declare
// stand-ins, the registry-wide convention).
func seedParams(info *types.Info, fd *ast.FuncDecl) []*types.Var {
	var seeds []*types.Var
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			v, ok := info.Defs[name].(*types.Var)
			if ok && isPlanInput(v.Type()) {
				seeds = append(seeds, v)
			}
		}
	}
	return seeds
}

// isPlanInput reports whether t is *Node, []*Node or *PassContext
// (unwrapping one slice and one pointer).
func isPlanInput(t types.Type) bool {
	if s, ok := t.Underlying().(*types.Slice); ok {
		t = s.Elem()
	}
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	switch n.Obj().Name() {
	case "Node", "PassContext":
		return true
	}
	return false
}

// checker carries one Rewrite body's analysis; its callbacks run on the
// same flow, so a store is reported once however it is reached.
type checker struct {
	info *types.Info
	flow *analysis.VarFlow[bool]
}

func checkRewrite(pass *analysis.Pass, body *ast.BlockStmt, seeds []*types.Var) {
	c := &checker{info: pass.TypesInfo}
	c.flow = &analysis.VarFlow[bool]{
		Pass: pass,
		Join: func(a, b bool) bool { return true },
		Node: c.node,
	}
	entry := fact{}
	for _, v := range seeds {
		entry[v] = true
	}
	c.flow.Run(body, entry)
}

func (c *checker) node(n ast.Node, f fact, report bool) {
	info := c.info
	switch s := n.(type) {
	case *ast.AssignStmt:
		// Violations first: a store whose target is reached through a
		// tainted pointer mutates the shared input plan.
		for _, lhs := range s.Lhs {
			if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
				continue
			}
			if report {
				if v := analysis.RootVar(info, lhs); v != nil && f[v] {
					c.flow.Reportf(lhs.Pos(), "store through %q mutates the pass input in place; Rewrite must clone before editing", v.Name())
				}
			}
		}
		// Then bindings.
		c.bindAssign(s, f)
		c.scanCalls(s, f, report)
	case *ast.IncDecStmt:
		if _, isIdent := ast.Unparen(s.X).(*ast.Ident); !isIdent && report {
			if v := analysis.RootVar(info, s.X); v != nil && f[v] {
				c.flow.Reportf(s.X.Pos(), "increment through %q mutates the pass input in place; Rewrite must clone before editing", v.Name())
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							c.bind(name, vs.Values[i], f)
						}
					}
				}
			}
		}
		c.scanCalls(s, f, report)
	default:
		c.scanCalls(n, f, report)
	}
}

// bindAssign applies taint propagation for one assignment statement.
func (c *checker) bindAssign(s *ast.AssignStmt, f fact) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		for _, lhs := range s.Lhs {
			c.bind(lhs, s.Rhs[0], f)
		}
		return
	}
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i := range s.Lhs {
		c.bind(s.Lhs[i], s.Rhs[i], f)
	}
}

// bind propagates taint from rhs into an identifier LHS.
func (c *checker) bind(lhs, rhs ast.Expr, f fact) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	v := analysis.RootVar(c.info, id)
	if v == nil {
		return
	}
	if c.taints(rhs, f) {
		f[v] = true
	} else {
		delete(f, v)
	}
}

// taints reports whether evaluating rhs yields a value that may alias
// the tainted input graph.
func (c *checker) taints(rhs ast.Expr, f fact) bool {
	info := c.info
	rhs = ast.Unparen(rhs)
	if call, ok := rhs.(*ast.CallExpr); ok {
		// Clone launders: its result is a fresh graph by contract.
		if fn := analysis.CalleeFunc(info, call); fn != nil {
			switch fn.Name() {
			case "Clone", "clone":
				return false
			}
		}
		// Any other call: tainted if its receiver or any argument is —
		// a helper handed the input may return an alias into it.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if v := analysis.RootVar(info, sel.X); v != nil && f[v] {
				return true
			}
		}
		for _, a := range call.Args {
			if c.taints(a, f) {
				return true
			}
		}
		return false
	}
	if v := analysis.RootVar(info, rhs); v != nil && f[v] {
		return true
	}
	return false
}

// scanCalls walks a node for calls that take function-literal callbacks
// — the Walk idiom — and checks the literal's body with its node
// parameters bound to the receiver's taint. It also propagates nothing
// else: a call without a literal has no store to check here.
func (c *checker) scanCalls(n ast.Node, f fact, report bool) {
	info := c.info
	analysis.WalkShallow(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		recvTainted := false
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if v := analysis.RootVar(info, sel.X); v != nil && f[v] {
				recvTainted = true
			}
		}
		for _, a := range call.Args {
			lit, ok := ast.Unparen(a).(*ast.FuncLit)
			if !ok {
				continue
			}
			c.checkCallback(lit, f, recvTainted, report)
		}
		return true
	})
}

// checkCallback analyzes a Walk-style callback: its plan-typed
// parameters carry the taint of the walked receiver, plus whatever the
// enclosing scope already tainted.
func (c *checker) checkCallback(lit *ast.FuncLit, outer fact, recvTainted, report bool) {
	if !report {
		return
	}
	inner := outer.Clone()
	if recvTainted && lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := c.info.Defs[name].(*types.Var); ok && isPlanInput(v.Type()) {
					inner[v] = true
				}
			}
		}
	}
	c.flow.Run(lit.Body, inner)
}
