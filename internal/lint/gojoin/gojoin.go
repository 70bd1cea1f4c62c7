// Package gojoin enforces the goroutine-lifecycle contract of the
// concurrent operators: every `go` statement in internal/exec,
// internal/serve and internal/adapt must have a detectable join — a
// WaitGroup.Wait, a receive from a channel the goroutine signals on, or
// an explicit handle transfer (the channel is returned to the caller or
// parked in a struct field) — so cancellation cannot strand a producer.
// The cancellation-leak tests catch this dynamically for the paths they
// run; gojoin proves it for every spawn site on every build.
//
// Evidence is keyed by types.Object identity, which is what makes the
// split-lifecycle idiom work: the gojoin_a fixture's concOp.Open does
// `c.wg.Add(1); go c.produce()` while the matching `c.wg.Wait()` lives
// in Close — the `wg` field is one *types.Var shared by every method of
// the receiver, so the Wait in Close joins the spawn in Open. For
// same-function evidence the analyzer additionally checks CFG
// reachability: a Wait that only executes on a path the spawn cannot
// reach is no join.
package gojoin

import (
	"go/ast"
	"go/token"
	"go/types"

	"lqo/internal/lint/analysis"
)

// Analyzer is the goroutine-join checker.
var Analyzer = &analysis.Analyzer{
	Name: "gojoin",
	Doc: "every go statement must have a reachable join: a " +
		"WaitGroup.Wait, a receive from the goroutine's signal channel, " +
		"or a transferred join handle (channel returned or stored)",
	Scope: analysis.Scope{Include: []string{
		"lqo/internal/exec",
		"lqo/internal/serve",
		"lqo/internal/adapt",
	}},
	Run: run,
}

// evidence is everything in the package that can join a goroutine,
// collected in one pass before spawn sites are judged.
type evidence struct {
	// waited holds WaitGroup variables with a .Wait() call anywhere in
	// the package; the value is the functions the Waits occur in (nil
	// entry = some Wait in a different function than the spawn, which
	// needs no reachability check).
	waited map[*types.Var][]waitSite
	// received holds channel variables some code receives from (unary
	// <-ch, a range over ch, or a select comm clause).
	received map[*types.Var][]waitSite
	// escaped holds channel variables whose handle leaves the function
	// that owns them: returned to the caller or stored into a field —
	// the join obligation transfers with the handle.
	escaped map[*types.Var]bool
}

// waitSite locates one piece of join evidence: the function body it
// occurs in and the AST node carrying it.
type waitSite struct {
	body *ast.BlockStmt
	node ast.Node
}

func run(pass *analysis.Pass) error {
	ev := collect(pass)
	pass.InspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		check(pass, ev, g, stack)
		return true
	})
	return nil
}

// collect gathers package-wide join evidence.
func collect(pass *analysis.Pass) *evidence {
	info := pass.TypesInfo
	ev := &evidence{
		waited:   map[*types.Var][]waitSite{},
		received: map[*types.Var][]waitSite{},
		escaped:  map[*types.Var]bool{},
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			collectBody(info, ev, body)
			return true
		})
	}
	return ev
}

func collectBody(info *types.Info, ev *evidence, body *ast.BlockStmt) {
	analysis.WalkShallow(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(info, x); fn != nil && fn.Name() == "Wait" {
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					if v := handleVar(info, sel.X); v != nil && isWaitGroup(v.Type()) {
						ev.waited[v] = append(ev.waited[v], waitSite{body, x})
					}
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if v := handleVar(info, x.X); v != nil && isChan(v.Type()) {
					ev.received[v] = append(ev.received[v], waitSite{body, x})
				}
			}
		case *ast.RangeStmt:
			if v := handleVar(info, x.X); v != nil && isChan(info.TypeOf(x.X)) {
				ev.received[v] = append(ev.received[v], waitSite{body, x})
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if v := handleVar(info, r); v != nil && isChan(v.Type()) {
					ev.escaped[v] = true
				}
			}
		case *ast.AssignStmt:
			// ch stored through a field/index: the handle outlives the
			// function, so the join obligation moves with it.
			for i, lhs := range x.Lhs {
				if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
					continue
				}
				if i < len(x.Rhs) {
					if v := handleVar(info, x.Rhs[i]); v != nil && isChan(v.Type()) {
						ev.escaped[v] = true
					}
				}
			}
		}
		return true
	})
}

// check judges one spawn site against the collected evidence.
func check(pass *analysis.Pass, ev *evidence, g *ast.GoStmt, stack []ast.Node) {
	info := pass.TypesInfo
	encl := enclosingBody(stack)

	// Handles the goroutine can be joined through. For a literal we read
	// them off the body: every WaitGroup it calls Done on and every
	// channel it sends on or closes. For `go recv.method()` the body is
	// elsewhere; the handle is the WaitGroup the spawner Adds to in the
	// same function (the canonical wg.Add(1); go c.produce() shape).
	var wgs, chans []*types.Var
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		wgs, chans = literalHandles(info, lit)
		// A channel passed to the literal as an argument is a handle too.
		for _, a := range g.Call.Args {
			if v := handleVar(info, a); v != nil && isChan(v.Type()) {
				chans = append(chans, v)
			}
		}
	} else if encl != nil {
		analysis.WalkShallow(encl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := analysis.CalleeFunc(info, call); fn != nil && fn.Name() == "Add" {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if v := handleVar(info, sel.X); v != nil && isWaitGroup(v.Type()) {
						wgs = append(wgs, v)
					}
				}
			}
			return true
		})
	}

	if len(wgs) == 0 && len(chans) == 0 {
		pass.Reportf(g.Pos(), "go statement has no join handle: the goroutine signals no WaitGroup and no channel, so nothing can wait for it")
		return
	}

	for _, w := range wgs {
		if joined(ev.waited[w], encl, g) {
			return
		}
	}
	for _, ch := range chans {
		if ev.escaped[ch] {
			return
		}
		if joined(ev.received[ch], encl, g) {
			return
		}
	}
	pass.Reportf(g.Pos(), "goroutine is never joined: no reachable WaitGroup.Wait, channel receive, or handle transfer matches its join handle")
}

// joined reports whether any evidence site can run after the spawn:
// evidence in a different function joins unconditionally (the
// Open-spawn/Close-Wait split), evidence in the same function must be
// CFG-reachable from the spawn block.
func joined(sites []waitSite, encl *ast.BlockStmt, g *ast.GoStmt) bool {
	for _, s := range sites {
		if s.body != encl {
			return true
		}
		if reachableFrom(encl, g, s.node) {
			return true
		}
	}
	return false
}

// reachableFrom reports whether target (a node nested in some statement)
// can execute after the spawn statement, per the function's CFG. The
// spawn's own block counts: a Wait later in the same basic block runs
// after the go statement.
func reachableFrom(body *ast.BlockStmt, g *ast.GoStmt, target ast.Node) bool {
	cfg := analysis.BuildCFG(body)
	blocks := cfg.Reachable()

	contains := func(b *analysis.Block, n ast.Node) bool {
		for _, bn := range b.Nodes {
			found := false
			analysis.WalkShallow(bn, func(x ast.Node) bool {
				if x == n {
					found = true
				}
				return !found
			})
			if found {
				return true
			}
		}
		return false
	}

	var start *analysis.Block
	for _, b := range blocks {
		if contains(b, g) {
			start = b
			break
		}
	}
	if start == nil {
		// Spawn in dead code or inside a nested literal this CFG does
		// not cover; be permissive.
		return true
	}
	seen := map[*analysis.Block]bool{start: true}
	work := []*analysis.Block{start}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		if contains(b, target) {
			return true
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return false
}

// literalHandles reads the join handles off a spawned literal's body:
// WaitGroups it calls Done on, channels it sends on or closes.
func literalHandles(info *types.Info, lit *ast.FuncLit) (wgs, chans []*types.Var) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(info, x)
			if fn != nil && fn.Name() == "Done" {
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					if v := handleVar(info, sel.X); v != nil && isWaitGroup(v.Type()) {
						wgs = append(wgs, v)
					}
				}
			}
			if analysis.IsBuiltinCall(info, x, "close") && len(x.Args) == 1 {
				if v := handleVar(info, x.Args[0]); v != nil && isChan(v.Type()) {
					chans = append(chans, v)
				}
			}
		case *ast.SendStmt:
			if v := handleVar(info, x.Chan); v != nil && isChan(v.Type()) {
				chans = append(chans, v)
			}
		}
		return true
	})
	return wgs, chans
}

// enclosingBody returns the body of the innermost function enclosing the
// stack's last node.
func enclosingBody(stack []ast.Node) *ast.BlockStmt {
	switch fn := analysis.EnclosingFunc(stack).(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// handleVar resolves a join-handle expression to the variable that
// identifies it across functions. For a selector like `c.wg` that is the
// field object — one *types.Var shared by every method of the receiver
// type, which is what lets a Wait in Close join a spawn in Open. For a
// plain identifier it is the local or package variable itself.
func handleVar(info *types.Info, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return analysis.RootVar(info, x)
	case *ast.SelectorExpr:
		v, _ := info.Uses[x.Sel].(*types.Var)
		return v
	case *ast.StarExpr:
		return handleVar(info, x.X)
	}
	return nil
}

func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return analysis.NamedIn(t, "sync", "WaitGroup")
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
