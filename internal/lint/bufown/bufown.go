// Package bufown is the static twin of exec.NewDebugBatchPool: a
// path-sensitive ownership checker for pooled buffers. Every local that
// receives a `pool.Get*` result must, on every control-flow path out of
// the function, either be returned with the matching `Put*` or have its
// ownership transferred (stored into a struct/slice, sent on a channel,
// returned, or captured by a function literal whose lifetime the caller
// manages). The debug pool can only catch the paths a test executes;
// bufown walks the CFG (internal/lint/analysis cfg.go + solver.go), so
// the early error return no test reaches — the classic leak — is flagged
// at build time. Double puts and uses of a buffer after its put are
// flagged on the way.
//
// The abstract state per tracked variable is the may-set
// {Owned, Released, Escaped}; joins union the sets, so "Owned on some
// path into the exit" is exactly a possible leak. Ownership-preserving
// derivations are recognized: `sel = grow(sel[:0])` keeps sel owned
// (the append/grow idiom), and a call consuming a *direct* Get result
// (`gather(rows, pool.GetKeys(n))`) transfers the fresh buffer into its
// result. Panic exits are ignored — a leak while the process dies is
// not a finding.
package bufown

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lqo/internal/lint/analysis"
)

// Analyzer is the pool-ownership checker.
var Analyzer = &analysis.Analyzer{
	Name: "bufown",
	Doc: "every pool.Get* buffer must reach exactly one Put* or an " +
		"ownership transfer on all paths out of the function " +
		"(leaks on unexecuted error paths, double puts, use after put)",
	Run: run,
}

// poolPkgs are the packages whose code draws from a BatchPool.
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

// trackedTypes are the pooled buffer shapes worth tracking.
var trackedTypes = map[string]bool{
	"[]int32":  true,
	"[]uint64": true,
}

// Ownership state bits; a fact maps each tracked variable to a may-set.
const (
	owned uint8 = 1 << iota
	released
	escaped
)

type fact map[*types.Var]uint8

func (f fact) clone() fact {
	c := make(fact, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

func factEqual(a, b fact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func factMerge(a, b fact) fact {
	m := a.clone()
	for k, v := range b {
		m[k] |= v
	}
	return m
}

func run(pass *analysis.Pass) error {
	if !applies(pass.Pkg.Path()) {
		return nil
	}
	pass.InspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil && !isPoolMethod(pass.TypesInfo, fn) {
				checkFunc(pass, fn.Body)
			}
		case *ast.FuncLit:
			// Literals are analyzed as their own functions: their Gets
			// must resolve within the literal, and captures of outer
			// buffers count as escapes in the enclosing analysis.
			checkFunc(pass, fn.Body)
		}
		return true
	})
	return nil
}

// isPoolMethod reports whether fn is a method of BatchPool — the pool
// implementation itself is the one place Get/Put asymmetry is the point.
func isPoolMethod(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	t := info.TypeOf(fn.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "BatchPool"
}

// checker carries one function's analysis state.
type checker struct {
	pass *analysis.Pass
	// getPos records where each tracked variable last received a Get
	// result — the anchor leak diagnostics point at.
	getPos map[*types.Var]token.Pos
	getFn  map[*types.Var]string
	// reported dedups diagnostics across the reporting pass.
	reported map[token.Pos]bool
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	g := analysis.BuildCFG(body)
	c := &checker{
		pass:     pass,
		getPos:   map[*types.Var]token.Pos{},
		getFn:    map[*types.Var]string{},
		reported: map[token.Pos]bool{},
	}
	df := &analysis.Dataflow[fact]{
		CFG:      g,
		Entry:    fact{},
		Bottom:   func() fact { return fact{} },
		Transfer: func(b *analysis.Block, in fact) fact { return c.transfer(b, in, false) },
		Merge:    factMerge,
		Equal:    factEqual,
	}
	ins, err := df.Solve()
	if err != nil {
		// A non-converging function is an analyzer bug; stay silent
		// rather than report garbage.
		return
	}
	// Reporting pass: re-run the transfer once per reachable block with
	// its fixpoint IN fact, emitting diagnostics this time.
	for _, b := range g.Reachable() {
		c.transfer(b, ins[b], true)
	}
	// Leak check at the normal exit: any variable that may still be
	// owned leaks on at least one path.
	for v, st := range ins[g.Exit] {
		if st&owned != 0 {
			c.pass.Reportf(c.getPos[v], "%s buffer %q may not be returned to the pool on every path out of the function (missing Put on an early return?)", c.getFn[v], v.Name())
		}
	}
}

// transfer interprets one block. With report=true it additionally emits
// double-put / use-after-put diagnostics (never during solving, which
// visits blocks repeatedly).
func (c *checker) transfer(b *analysis.Block, in fact, report bool) fact {
	f := in.clone()
	for _, n := range b.Nodes {
		c.node(n, f, report)
	}
	return f
}

func (c *checker) node(n ast.Node, f fact, report bool) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		c.exprEffects(s.Rhs, f, report)
		c.assign(s, f, report)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.exprEffects(vs.Values, f, report)
					c.declSpec(vs, f)
				}
			}
		}
	case *ast.ExprStmt:
		c.exprEffects([]ast.Expr{s.X}, f, report)
	case *ast.CallExpr:
		// A bare CallExpr block node is a deferred call running on the
		// exit path (see cfg.go); apply its full call effect here.
		c.exprEffects([]ast.Expr{s}, f, report)
	case *ast.DeferStmt:
		// Registration point: the call runs later (exit chain). A
		// literal deferred here captures its environment now.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.escapeCaptured(lit, f)
		}
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.escapeCaptured(lit, f)
		}
		for _, a := range s.Call.Args {
			c.escapeRoot(a, f)
		}
	case *ast.ReturnStmt:
		c.exprEffects(s.Results, f, report)
		for _, r := range s.Results {
			c.escapeRoot(r, f)
		}
	case *ast.SendStmt:
		c.exprEffects([]ast.Expr{s.Value}, f, report)
		c.escapeRoot(s.Value, f)
	case *ast.IncDecStmt, *ast.RangeStmt:
		// Reads only; use-after-put on reads is handled in exprEffects
		// for expression-bearing nodes, and a range over a put buffer
		// is caught below.
		if rs, ok := n.(*ast.RangeStmt); ok {
			c.exprEffects([]ast.Expr{rs.X}, f, report)
		}
	default:
		if e, ok := n.(ast.Expr); ok { // branch conditions, switch tags
			c.exprEffects([]ast.Expr{e}, f, report)
		}
	}
}

// assign applies variable bindings after RHS effects have run.
func (c *checker) assign(s *ast.AssignStmt, f fact, report bool) {
	// Tuple form: x, y := call(...)
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			for _, lhs := range s.Lhs {
				c.bind(lhs, call, f, report)
			}
			return
		}
	}
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i := range s.Lhs {
		c.bind(s.Lhs[i], s.Rhs[i], f, report)
	}
}

func (c *checker) declSpec(vs *ast.ValueSpec, f fact) {
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			c.bind(name, vs.Values[i], f, false)
		}
	}
}

// bind updates the state of one LHS target from one RHS expression.
func (c *checker) bind(lhs, rhs ast.Expr, f fact, report bool) {
	info := c.pass.TypesInfo
	id, isIdent := ast.Unparen(lhs).(*ast.Ident)
	if !isIdent {
		// Store through a field/index/deref: ownership of an owned RHS
		// root transfers to the container.
		c.escapeRoot(rhs, f)
		return
	}
	if id.Name == "_" {
		return
	}
	v := objVar(info, id)
	if v == nil || !trackedTypes[v.Type().String()] {
		return
	}
	old, tracked := f[v]

	if g := getCall(info, rhs); g != "" {
		// v := pool.GetX(...)
		if report && tracked && old == owned && !mentionsVar(info, rhs, v) {
			c.reportOnce(lhs.Pos(), "buffer %q reassigned while still owned; the previous %s buffer leaks", v.Name(), c.getFn[v])
		}
		f[v] = owned
		c.getPos[v] = rhs.Pos()
		c.getFn[v] = g
		return
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		// v = grow(..., v[:0], ...): the grow idiom keeps v's state.
		if mentionsVar(info, call, v) {
			return
		}
		// v := consume(..., pool.GetX(...), ...): a call consuming a
		// direct Get transfers the fresh buffer into its result.
		for _, a := range call.Args {
			if getCall(info, a) != "" {
				f[v] = owned
				c.getPos[v] = a.Pos()
				c.getFn[v] = getCall(info, a)
				return
			}
		}
		delete(f, v)
		return
	}
	// Plain alias: v = w (possibly sliced). Re-slicing a variable onto
	// itself keeps its state; aliasing an *owned* buffer under a second
	// name makes ownership ambiguous (a Put through either name should
	// satisfy it), so both sides drop to Escaped — tracking gives up
	// rather than report a false leak. Released/Escaped states copy
	// through so use-after-put is still caught via the alias.
	if w := analysis.RootVar(info, rhs); w != nil {
		if st, ok := f[w]; ok {
			if w != v && st&owned != 0 {
				f[w] = (st &^ owned) | escaped
				f[v] = escaped
				return
			}
			f[v] = st
			if p, ok := c.getPos[w]; ok {
				c.getPos[v], c.getFn[v] = p, c.getFn[w]
			}
			return
		}
	}
	delete(f, v)
}

// exprEffects walks expressions shallowly (not into FuncLit bodies),
// applying Put calls, escapes via composite literals / address-of /
// captures, and use-after-put reads.
func (c *checker) exprEffects(exprs []ast.Expr, f fact, report bool) {
	info := c.pass.TypesInfo
	for _, e := range exprs {
		analysis.WalkShallow(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				c.escapeCaptured(x, f)
				return false
			case *ast.CallExpr:
				if name, arg := putCall(info, x); name != "" {
					if v := putTarget(info, arg); v != nil {
						st, tracked := f[v]
						if report && tracked && st == released {
							c.reportOnce(x.Pos(), "double put: buffer %q was already returned to the pool on every path reaching this %s", v.Name(), name)
						}
						if tracked {
							f[v] = released
						}
					}
					// The argument of a Put is not a "read".
					for _, a := range x.Args {
						c.exprEffects(subExprs(a), f, report)
					}
					return false
				}
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					c.escapeRoot(el, f)
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					c.escapeRoot(x.X, f)
				}
			case *ast.Ident:
				if report {
					if v := objVar(info, x); v != nil {
						if st, ok := f[v]; ok && st == released {
							c.reportOnce(x.Pos(), "use after put: buffer %q was returned to the pool on every path reaching this use", v.Name())
							// Report once, then treat as escaped to
							// silence the cascade.
							f[v] = escaped
						}
					}
				}
			}
			return true
		})
	}
}

// subExprs returns e's children for the put-argument walk (skipping the
// top-level identifier so the put's own argument is not a "read").
func subExprs(e ast.Expr) []ast.Expr {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return nil
	case *ast.IndexExpr:
		return []ast.Expr{x.Index}
	case *ast.SliceExpr:
		var out []ast.Expr
		for _, i := range []ast.Expr{x.Low, x.High, x.Max} {
			if i != nil {
				out = append(out, i)
			}
		}
		return out
	default:
		return []ast.Expr{e}
	}
}

// escapeRoot transfers ownership of e's root variable out of the
// function's hands.
func (c *checker) escapeRoot(e ast.Expr, f fact) {
	if v := analysis.RootVar(c.pass.TypesInfo, e); v != nil {
		if st, ok := f[v]; ok && st&owned != 0 {
			f[v] = (st &^ owned) | escaped
		}
	}
}

// escapeCaptured escapes every tracked variable a function literal
// references: the literal may release or retain the buffer on its own
// schedule.
func (c *checker) escapeCaptured(lit *ast.FuncLit, f fact) {
	info := c.pass.TypesInfo
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := objVar(info, id); v != nil {
				if st, ok := f[v]; ok && st&owned != 0 {
					f[v] = (st &^ owned) | escaped
				}
			}
		}
		return true
	})
}

func (c *checker) reportOnce(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

func objVar(info *types.Info, id *ast.Ident) *types.Var {
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = info.Defs[id].(*types.Var)
	}
	return v
}

// getCall reports the method name when e is a direct pool Get call
// (GetSel/GetKeys on a BatchPool receiver).
func getCall(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || !onBatchPool(fn) {
		return ""
	}
	switch fn.Name() {
	case "GetSel", "GetKeys":
		return fn.Name()
	}
	return ""
}

// putCall reports the method name and first argument when e is a pool
// Put call.
func putCall(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || !onBatchPool(fn) || len(call.Args) == 0 {
		return "", nil
	}
	switch fn.Name() {
	case "PutSel", "PutKeys":
		return fn.Name(), call.Args[0]
	}
	return "", nil
}

// putTarget resolves a Put argument to the tracked variable it names.
// Only a whole-variable put counts: putting bufs[i] returns an element
// whose ownership lives elsewhere.
func putTarget(info *types.Info, arg ast.Expr) *types.Var {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return nil
	}
	return objVar(info, id)
}

// onBatchPool reports whether fn is a method of a type named BatchPool.
// The name alone identifies it so fixtures can declare a stand-in, the
// same convention poolret uses.
func onBatchPool(fn *types.Func) bool {
	n := analysis.MethodRecv(fn)
	return n != nil && n.Obj().Name() == "BatchPool"
}

// mentionsVar reports whether expr references v anywhere outside nested
// function literals — the grow-idiom test for self-derived calls.
func mentionsVar(info *types.Info, expr ast.Expr, v *types.Var) bool {
	found := false
	analysis.WalkShallow(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objVar(info, id) == v {
			found = true
		}
		return !found
	})
	return found
}
