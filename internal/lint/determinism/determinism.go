// Package determinism enforces the byte-identical ReferenceRun contract
// (PR 1/PR 3): plan rendering, telemetry folds, cost labels and EXPLAIN
// output must be reproducible bit for bit across runs, worker counts and
// batch sizes. Three nondeterminism sources are banned in the packages
// that feed those artifacts:
//
//   - time.Now — wall time differs per run. The sanctioned exception is
//     the operator-telemetry idiom `defer tel.timed(time.Now())`, whose
//     result is excluded from the reference fold.
//   - map iteration — Go randomizes range order; sort the keys first.
//   - package-level math/rand — globally seeded, racy, nondeterministic.
//     Seeded rand.New(rand.NewSource(seed)) generators are fine. This
//     rule applies to every internal package: experiment reproducibility
//     (EXPERIMENTS.md pins tables to seeds) depends on it.
package determinism

import (
	"go/ast"
	"go/types"

	"lqo/internal/lint/analysis"
)

// Analyzer is the determinism invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "no time.Now, map-order iteration, or unseeded math/rand in " +
		"determinism-critical packages (byte-identical ReferenceRun " +
		"contract)",
	// The math/rand rule's scope; time.Now and map iteration are
	// checked only within ReferenceScope.
	Scope: analysis.Scope{
		Include: []string{"lqo/internal"},
		Exclude: []string{"lqo/internal/lint"},
	},
	Run: run,
}

// ReferenceScope is the packages that produce reference output: plans,
// EXPLAIN text, telemetry folds, cost labels, metric tables — and the
// adaptation loop's drift verdicts and gate decisions, which must replay
// identically from the same observation sequence.
var ReferenceScope = analysis.Scope{Include: []string{
	"lqo/internal/plan",
	"lqo/internal/exec",
	"lqo/internal/opt",
	"lqo/internal/cost",
	"lqo/internal/costmodel",
	"lqo/internal/metrics",
	"lqo/internal/adapt",
}}

// randConstructors build seeded generators and are always allowed.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	det := ReferenceScope.Contains(pass.Pkg.Path())
	info := pass.TypesInfo

	pass.InspectWithStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(info, n)
			if fn == nil {
				return true
			}
			if det && analysis.IsPkgFunc(fn, "time", "Now") && !isTelemetrySink(stack) {
				pass.Reportf(n.Pos(), "time.Now in a determinism-critical package; reference output must be byte-identical across runs")
			}
			if isGlobalRand(fn) {
				pass.Reportf(n.Pos(), "package-level math/rand.%s is unseeded and nondeterministic; use rand.New(rand.NewSource(seed))", fn.Name())
			}
		case *ast.RangeStmt:
			if !det {
				return true
			}
			if _, isMap := info.TypeOf(n.X).Underlying().(*types.Map); isMap {
				pass.Reportf(n.Pos(), "map iteration order is nondeterministic; range over sorted keys instead (byte-identical ReferenceRun contract)")
			}
		}
		return true
	})
	return nil
}

// isGlobalRand reports whether fn is a package-level (receiver-less)
// function of math/rand or math/rand/v2 other than a seeded-generator
// constructor. Methods on *rand.Rand are the seeded path and are fine.
func isGlobalRand(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	if p != "math/rand" && p != "math/rand/v2" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return !randConstructors[fn.Name()]
}

// isTelemetrySink reports whether the time.Now call is the argument of a
// call to a method named "timed" — the per-operator wall-clock telemetry
// idiom (`defer tel.timed(time.Now())`), whose measurements are kept out
// of the reference fold by construction.
func isTelemetrySink(stack []ast.Node) bool {
	parent, self := analysis.Parent(stack)
	call, ok := parent.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "timed" && analysis.IsArg(call, self)
}
