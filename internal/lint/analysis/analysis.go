// Package analysis is a deliberately small, dependency-free re-creation
// of the golang.org/x/tools/go/analysis API surface that lqolint needs:
// an Analyzer runs over one type-checked package and reports position-
// tagged diagnostics. The container building this repo has no module
// proxy, so the real x/tools module is unavailable; the subset here is
// API-shaped like the original (Analyzer{Name,Doc,Run}, Pass, Diagnostic)
// so the suite can migrate to x/tools verbatim when a vendored copy
// lands. See internal/lint for the analyzers themselves.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker: a named rule with a Run
// function applied independently to each package in its Scope.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lqolint:ignore directives. It must be a valid identifier.
	Name string

	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string

	// Scope is the set of module packages the contract covers;
	// RunAnalyzer skips every other package.
	Scope Scope

	// Run applies the analyzer to one package, reporting findings
	// through pass.Report/Reportf. A returned error aborts the whole
	// lint run (reserved for internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, tagged with the analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	*p.diags = append(*p.diags, d)
}

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Inspect walks every file of the package in depth-first order.
func (p *Pass) Inspect(fn func(n ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// InspectWithStack walks every file keeping the ancestor stack:
// stack[0] is the *ast.File and stack[len(stack)-1] is n itself. The
// walk descends into n's children only when fn returns true.
func (p *Pass) InspectWithStack(fn func(n ast.Node, stack []ast.Node) bool) {
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			return fn(n, stack)
		})
	}
}

// module is the import path of the module the scopes are written for.
const module = "lqo"

// Scope selects the module packages an analyzer checks. A package
// outside the module (a golden fixture) is always in scope. A module
// package is in scope when it lies under an Include path (no Include
// means the whole module) and under no Exclude path. "Under" matches
// whole path segments: lqo/internal/data covers itself and its
// subpackages, not lqo/internal/datagen.
type Scope struct {
	Include, Exclude []string
}

// Contains reports whether the package at pkgPath is in scope.
func (s Scope) Contains(pkgPath string) bool {
	if !strings.HasPrefix(pkgPath, module+"/") {
		return true
	}
	return (len(s.Include) == 0 || underAny(pkgPath, s.Include)) && !underAny(pkgPath, s.Exclude)
}

func under(pkgPath, dir string) bool {
	return pkgPath == dir || strings.HasPrefix(pkgPath, dir+"/")
}

func underAny(pkgPath string, dirs []string) bool {
	for _, d := range dirs {
		if under(pkgPath, d) {
			return true
		}
	}
	return false
}

// RunAnalyzer applies a to one package and returns its raw (unsuppressed)
// diagnostics; a package outside a.Scope has none.
func RunAnalyzer(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	if !a.Scope.Contains(pkg.Path()) {
		return nil, nil
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		diags:     &diags,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return diags, nil
}
