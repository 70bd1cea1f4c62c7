package lint_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"lqo/internal/lint/load"
)

// testOnlyAllowed names the exported API under internal/ that no non-test
// file uses and that stays anyway, each with its reason. Keys are
// "pkg.Name" or "pkg.Recv.Name", pkg being the path below lqo/internal/.
var testOnlyAllowed = map[string]string{
	"exec.NewDebugBatchPool":    "the batch-ownership checker; the pooled-pipeline tests run under it",
	"exec.BatchPool.Misuse":     "reads the ownership checker's verdict",
	"lint/analysistest.Run":     "the analyzers' golden-fixture harness",
	"data.Column.AppendString":  "builds dictionary-coded fixture columns row by row",
	"data.Dict.Str":             "decodes a dictionary code; the dictionary round-trip tests need it",
	"data.Table.Validate":       "checks a hand-built table's invariants before a test runs on it",
	"ml.Layer.GradW":            "TreeConv's finite-difference gradient check reads the weight gradient",
	"plan.Node.Nodes":           "walks a plan tree in pre-order; plan and rewrite tests assert over it",
	"query.JoinGraph.Connected": "benchmark/benchmark_test.go calls it to check generated queries are connected",
	"cardest.LPCE.Observe":      "LPCE's online refinement; ROADMAP item 4 decides whether E1 scores it or the row goes",
	"exec.CardCache.Len":        "the card-cache tests count entries to pin that a miss caches one label, no sub-plans",
	"query.Join.Other":          "the join-graph oracle in graph_equiv_test walks edges by alias with it, apart from JoinGraph's bitmasks",
}

// apiKey names a package-level function or type, or a method, by where
// it is declared. Objects must be compared this way: a package loaded
// from source and the same package imported from export data are
// distinct types.Package instances.
type apiKey struct{ pkg, recv, name string }

func keyOf(obj types.Object) (apiKey, bool) {
	if obj.Pkg() == nil {
		return apiKey{}, false
	}
	switch o := obj.(type) {
	case *types.TypeName:
		return apiKey{pkg: o.Pkg().Path(), name: o.Name()}, true
	case *types.Func:
		o = o.Origin()
		recv := ""
		if r := o.Type().(*types.Signature).Recv(); r != nil {
			t := r.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			switch t := t.(type) {
			case *types.Named:
				recv = t.Origin().Obj().Name()
			case *types.Interface:
				return apiKey{}, false // an interface's own method
			}
		}
		return apiKey{pkg: o.Pkg().Path(), recv: recv, name: o.Name()}, true
	}
	return apiKey{}, false
}

// TestNoTestOnlyAPI: every exported function, method and type declared
// under internal/ must be used by some non-test file of the module —
// benchmark/, cmd/ and examples/ count as users. API that only tests
// reach is dead weight the build keeps compiling; delete it with its
// tests, or add it to testOnlyAllowed with a reason. A method whose
// name is a method of any interface type seen in the loaded packages is
// skipped, since a call through the interface names the interface's
// method, not the concrete one.
func TestNoTestOnlyAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load skipped in -short mode")
	}
	root, err := load.FindModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	modPath, err := load.ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, dirs, err := load.ModulePackages(root)
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	l := load.NewLoader(root)
	if err := l.Prefetch("./..."); err != nil {
		t.Fatalf("Prefetch: %v", err)
	}
	internal := modPath + "/internal/"

	used := map[apiKey]bool{}
	ifaceMethods := map[string]bool{}
	noteIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	type decl struct {
		key apiKey
		pos token.Position
	}
	var decls []decl
	for _, ip := range paths {
		pkg, err := l.LoadDir(dirs[ip], ip)
		if err != nil {
			t.Fatalf("load %s: %v", ip, err)
		}
		// A declaration's own identifiers are not uses of it: a
		// method's receiver names its type, and a recursive call
		// names the function.
		self := map[*ast.Ident]apiKey{}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[d.Name]
					k, _ := keyOf(obj)
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								if tn, ok := pkg.Info.Uses[id].(*types.TypeName); ok {
									self[id], _ = keyOf(tn)
								}
							}
							return true
						})
					}
					if d.Body != nil {
						ast.Inspect(d.Body, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
								self[id] = k
							}
							return true
						})
					}
					if d.Name.IsExported() && strings.HasPrefix(ip, internal) {
						decls = append(decls, decl{k, pkg.Fset.Position(d.Name.Pos())})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() || !strings.HasPrefix(ip, internal) {
							continue
						}
						k, _ := keyOf(pkg.Info.Defs[ts.Name])
						decls = append(decls, decl{k, pkg.Fset.Position(ts.Name.Pos())})
					}
				}
			}
		}
		for id, obj := range pkg.Info.Uses {
			if k, ok := keyOf(obj); ok && self[id] != k {
				used[k] = true
			}
		}
		for _, tv := range pkg.Info.Types {
			noteIface(tv.Type)
		}
	}

	var dead []string
	unused := map[string]bool{} // every declared name -> it has no non-test use
	for _, d := range decls {
		name := strings.TrimPrefix(d.key.pkg, internal)
		if d.key.recv != "" {
			name += "." + d.key.recv
		}
		name += "." + d.key.name
		live := used[d.key] || (d.key.recv != "" && ifaceMethods[d.key.name])
		unused[name] = !live
		if live {
			continue
		}
		if _, ok := testOnlyAllowed[name]; ok {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s:%d: %s", d.pos.Filename, d.pos.Line, name))
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s has no non-test use: delete it with the tests that only exercise it, or allow it with a reason", s)
	}
	for name, reason := range testOnlyAllowed {
		if u, ok := unused[name]; !ok || !u {
			t.Errorf("testOnlyAllowed names %s, which is gone or has a non-test use now; drop the entry", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testOnlyAllowed entry %s gives no reason", name)
		}
	}
}
