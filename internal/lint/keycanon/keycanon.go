// Package keycanon enforces the PR-6 cache-key contract: every canonical
// key the module builds — Query.Key, plan fingerprints, prepared-statement
// shape keys — must go through query.KeyBuilder's length-prefixed
// encoding. Hand-rolled key construction (strings.Join, fmt.Sprintf,
// string concatenation) reintroduces the delimiter-injection collision
// class the encoding exists to kill: any alias, table or column containing
// a delimiter byte makes two distinct queries render the same key, which
// is silent wrong results once a cache keys on it.
//
// The check fires inside functions whose name marks them as key
// producers (Key, KeyString, ShapeKey, Fingerprint, StructureKey,
// CacheKey, PlanKey, and their unexported append/assemble variants);
// everything else — display labels, SQL rendering, error messages — may
// format strings freely.
package keycanon

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lqo/internal/lint/analysis"
)

// Analyzer is the keycanon invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "keycanon",
	Doc: "canonical cache keys must be assembled with query.KeyBuilder; " +
		"no strings.Join/fmt.Sprintf/string concatenation inside key-producing functions",
	Run: run,
}

// keyPkgs are the packages that mint canonical keys: the query/plan key
// encoders and every layer that caches on them.
var keyPkgs = []string{
	"lqo/internal/query",
	"lqo/internal/plan",
	"lqo/internal/sqlx",
	"lqo/internal/serve",
	"lqo/internal/exec",
}

func applies(pkgPath string) bool {
	if !strings.HasPrefix(pkgPath, "lqo/") {
		return true
	}
	for _, p := range keyPkgs {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// keyFuncs are the function names that produce canonical keys. The
// KeyBuilder primitives themselves (Raw, Atom, Num, Append) are the one
// sanctioned place where bytes are written, and are deliberately absent.
var keyFuncs = map[string]bool{
	"Key":          true,
	"KeyString":    true,
	"ShapeKey":     true,
	"Fingerprint":  true,
	"StructureKey": true,
	"CacheKey":     true,
	"PlanKey":      true,
	"AppendKey":    true,
	"appendKey":    true,
	"fingerprint":  true,
	"structureKey": true,
	"shapeKey":     true,
	"cacheKey":     true,
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// formatters are the raw string-assembly calls banned inside key funcs.
func isFormatter(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if analysis.IsPkgFunc(fn, "strings", "Join") {
		return true
	}
	for _, name := range []string{"Sprintf", "Sprint", "Sprintln", "Appendf"} {
		if analysis.IsPkgFunc(fn, "fmt", name) {
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
	pass.Inspect(func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !keyFuncs[fd.Name.Name] {
			return true
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := analysis.CalleeFunc(info, n); isFormatter(fn) {
					pass.Reportf(n.Pos(), "%s.%s in key function %s builds a collision-prone key; assemble it with query.KeyBuilder (Raw/Atom/Num)", fn.Pkg().Name(), fn.Name(), fd.Name.Name)
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isString(info.TypeOf(n.X)) && isString(info.TypeOf(n.Y)) {
					// Concatenating two constants is static vocabulary,
					// not injected content.
					if info.Types[n.X].Value != nil && info.Types[n.Y].Value != nil {
						return true
					}
					pass.Reportf(n.Pos(), "string concatenation in key function %s builds a collision-prone key; assemble it with query.KeyBuilder (Raw/Atom/Num)", fd.Name.Name)
					// Report a chained a+b+c concat once, at the outermost
					// expression.
					return false
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
					pass.Reportf(n.Pos(), "string += in key function %s builds a collision-prone key; assemble it with query.KeyBuilder (Raw/Atom/Num)", fd.Name.Name)
				}
			}
			return true
		})
		return true
	})
	return nil
}
