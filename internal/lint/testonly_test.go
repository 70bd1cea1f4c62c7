package lint_test

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"sync"
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

// moduleScan is what one type-checked walk of the module's non-test
// files finds: the exported API under internal/ and the names that are
// used, and the option fields in optionScope or learnedScope and the
// ones that are written.
type moduleScan struct {
	internal     string // "<module>/internal/"
	decls        []decl // exported functions, methods and types under internal/
	used         map[apiKey]bool
	ifaceMethods map[string]bool // names of every interface method seen
	fields       []decl          // exported fields of the types optionScope or learnedScope admits
	learned      map[apiKey]bool // the fields of learnedScope's types
	written      map[apiKey]bool // fields by {pkg, struct type, field}
	// writtenOutside holds the fields written by a package other than the
	// one that declares them.
	writtenOutside map[apiKey]bool
}

type decl struct {
	key apiKey
	pos token.Position
}

// name renders k as testOnlyAllowed and testOnlyOptionAllowed key it.
func (m *moduleScan) name(k apiKey) string {
	name := strings.TrimPrefix(k.pkg, m.internal)
	if k.recv != "" {
		name += "." + k.recv
	}
	return name + "." + k.name
}

var (
	scanOnce sync.Once
	scanned  *moduleScan
	scanErr  error
)

// scanModule loads every package of the module once and records, for
// both checks below, what its non-test files declare, use and write.
func scanModule(t *testing.T) *moduleScan {
	t.Helper()
	if testing.Short() {
		t.Skip("full-module load skipped in -short mode")
	}
	scanOnce.Do(func() { scanned, scanErr = walkModule() })
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	return scanned
}

func walkModule() (*moduleScan, error) {
	root, err := load.FindModuleRoot(".")
	if err != nil {
		return nil, fmt.Errorf("locating module root: %w", err)
	}
	modPath, err := load.ModulePath(root)
	if err != nil {
		return nil, err
	}
	paths, dirs, err := load.ModulePackages(root)
	if err != nil {
		return nil, fmt.Errorf("ModulePackages: %w", err)
	}
	l := load.NewLoader(root)
	if err := l.Prefetch("./..."); err != nil {
		return nil, fmt.Errorf("Prefetch: %w", err)
	}
	m := &moduleScan{
		internal:       modPath + "/internal/",
		used:           map[apiKey]bool{},
		ifaceMethods:   map[string]bool{},
		learned:        map[apiKey]bool{},
		written:        map[apiKey]bool{},
		writtenOutside: map[apiKey]bool{},
	}
	for _, ip := range paths {
		pkg, err := l.LoadDir(dirs[ip], ip)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", ip, err)
		}
		m.scanPackage(pkg, strings.HasPrefix(ip, m.internal))
	}
	return m, nil
}

func (m *moduleScan) scanPackage(pkg *load.Package, internal bool) {
	// A declaration's own identifiers are not uses of it: a method's
	// receiver names its type, and a recursive call names the function.
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
					if d.Name.Name != "withDefaults" {
						m.noteWrites(pkg, d.Body)
					}
				}
				if d.Name.IsExported() && internal {
					m.decls = append(m.decls, decl{k, pkg.Fset.Position(d.Name.Pos())})
				}
			case *ast.GenDecl:
				m.noteWrites(pkg, d) // package-level var initializers
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !internal {
						continue
					}
					k, _ := keyOf(pkg.Info.Defs[ts.Name])
					m.decls = append(m.decls, decl{k, pkg.Fset.Position(ts.Name.Pos())})
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					learned := m.learnedScope(pkg, pkg.Info.Defs[ts.Name])
					if !learned && !m.optionScope(k) {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if id.IsExported() {
								fk := apiKey{k.pkg, k.name, id.Name}
								m.fields = append(m.fields, decl{fk, pkg.Fset.Position(id.Pos())})
								m.learned[fk] = learned
							}
						}
					}
				}
			}
		}
	}
	for id, obj := range pkg.Info.Uses {
		if k, ok := keyOf(obj); ok && self[id] != k {
			m.used[k] = true
		}
	}
	for _, tv := range pkg.Info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m.ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
}

// optionScope reports whether the struct type k is a configuration
// surface: its name ends in Config or Options, or it is one of the
// structs callers tune by setting fields.
func (m *moduleScan) optionScope(k apiKey) bool {
	if strings.HasSuffix(k.name, "Config") || strings.HasSuffix(k.name, "Options") {
		return true
	}
	switch m.name(k) {
	case "opt.Optimizer", "exec.Executor", "plan.PassPipeline", "plan.PassContext",
		"plan.HintSet", "pilotscope.Console", "lint/analysis.Dataflow":
		return true
	}
	return false
}

// learnedPackages are the packages of the learned components, below
// lqo/internal/, and learnedContracts the interfaces ("pkg.Name") whose
// implementations there learnedScope admits, with learnedTypes the
// types it admits by name. Each method is studied at the one
// configuration its constructor builds, so a knob no caller outside the
// package turns is a constant.
var (
	learnedPackages  = []string{"cardest", "costmodel", "learnedopt", "joinorder", "ml"}
	learnedContracts = []string{"cardest.Estimator", "costmodel.Model", "learnedopt.Optimizer"}
	learnedTypes     = []string{"ml.Adam", "learnedopt.PairwiseComparator"}
)

// learnedScope reports whether obj, a type declared in pkg, is a learned
// component: a type of learnedPackages that is in learnedTypes or whose
// pointer implements one of learnedContracts that pkg declares or
// imports. Its exported fields must be written outside pkg.
func (m *moduleScan) learnedScope(pkg *load.Package, obj types.Object) bool {
	rel := strings.TrimPrefix(pkg.Path, m.internal)
	if rel == pkg.Path || !slices.Contains(learnedPackages, rel) {
		return false
	}
	if slices.Contains(learnedTypes, rel+"."+obj.Name()) {
		return true
	}
	ptr := types.NewPointer(obj.Type())
	for _, c := range learnedContracts {
		cpkg, name, _ := strings.Cut(c, ".")
		scopes := []*types.Package{pkg.Types}
		scopes = append(scopes, pkg.Types.Imports()...)
		for _, p := range scopes {
			if p.Path() != m.internal+cpkg {
				continue
			}
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && types.Implements(ptr, it) {
					return true
				}
			}
		}
	}
	return false
}

// noteWrites records every struct field that root, in pkg, writes: a
// composite literal's key (or position), an assignment's or ++/--'s
// target, and a field whose address is taken. A target's whole selector
// chain counts: cfg.Breaker.Cooldown = 2 writes both fields.
func (m *moduleScan) noteWrites(pkg *load.Package, root ast.Node) {
	info := pkg.Info
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					m.noteField(pkg.Path, sel.Recv(), sel.Index())
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if t == nil {
				return true
			}
			st, ok := deref(t).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if zeroLiteral(info, kv.Value) {
						continue // Field: 0 spells the default; it sets nothing
					}
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							for j := 0; j < st.NumFields(); j++ {
								if st.Field(j) == v {
									m.noteField(pkg.Path, t, []int{j})
								}
							}
						}
					}
				} else {
					m.noteField(pkg.Path, t, []int{i})
				}
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		}
		return true
	})
}

// zeroLiteral reports whether e is a literal zero value: 0, "", false
// or nil. A named constant is not one, even when its value is zero.
func zeroLiteral(info *types.Info, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		v := info.Types[x].Value
		if v == nil {
			return false
		}
		if v.Kind() == constant.String {
			return constant.StringVal(v) == ""
		}
		return constant.Sign(v) == 0
	case *ast.Ident:
		obj := info.Uses[x]
		return obj != nil && obj.Parent() == types.Universe && (x.Name == "false" || x.Name == "nil")
	}
	return false
}

// noteField marks written, by package writer, the field that index path
// reaches from t (a promoted field is owned by the struct that declares
// it).
func (m *moduleScan) noteField(writer string, t types.Type, path []int) {
	for i, idx := range path {
		t = deref(t)
		st, ok := t.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			return
		}
		f := st.Field(idx)
		if i == len(path)-1 {
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
				k := apiKey{n.Obj().Pkg().Path(), n.Origin().Obj().Name(), f.Name()}
				m.written[k] = true
				if writer != k.pkg {
					m.writtenOutside[k] = true
				}
			}
			return
		}
		t = f.Type()
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
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
	m := scanModule(t)
	var dead []string
	unused := map[string]bool{} // every declared name -> it has no non-test use
	for _, d := range m.decls {
		name := m.name(d.key)
		live := m.used[d.key] || (d.key.recv != "" && m.ifaceMethods[d.key.name])
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
	checkAllowlist(t, "testOnlyAllowed", testOnlyAllowed, unused)
}

// testOnlyOptionAllowed names the option fields that no non-test file
// writes and that stay anyway, each with its reason. Keys are
// "pkg.Type.Field", pkg being the path below lqo/internal/.
var testOnlyOptionAllowed = map[string]string{
	"adapt.GateConfig.MaxGMRL":          "TestLoopRollsBackDegradingCandidate reaches probation only through a permissive gate",
	"adapt.GateConfig.RelBound":         "TestLoopRollsBackDegradingCandidate reaches probation only through a permissive gate",
	"adapt.GateConfig.QErrBound":        "TestLoopRollsBackDegradingCandidate reaches probation only through a permissive gate",
	"adapt.GateConfig.QErrRatio":        "TestLoopRollsBackDegradingCandidate reaches probation only through a permissive gate",
	"adapt.GateConfig.MinHoldout":       "TestLoopRollsBackDegradingCandidate reaches probation only through a permissive gate",
	"adapt.Config.Train":                "the loop's tests substitute garbage and panicking trainers",
	"exec.Executor.Backend":             "the shard-seam tests inject failing and hanging shard backends",
	"bench.ConcurrentOptions.BatchSize": "the concurrent runner's batch-size identity sweep varies it",
}

// TestNoTestOnlyOption: every exported field of a configuration struct
// under internal/ (optionScope) must be written by some non-test file —
// a composite-literal key, an assignment or ++/-- target, or an address
// taken — outside the struct's withDefaults. benchmark/, cmd/ and
// examples/ count as writers. A field only tests set is a configuration
// no deployment runs: make it a constant, or allow it with a reason.
// An exported field of a learned component (learnedScope) must be
// written by a non-test file outside its own package: its constructor
// setting it is not enough, since a knob nobody else turns is a constant
// too (or an unexported field, where two constructors differ).
func TestNoTestOnlyOption(t *testing.T) {
	m := scanModule(t)
	var unset []string
	unwritten := map[string]bool{}
	for _, f := range m.fields {
		name := m.name(f.key)
		written, where := m.written[f.key], "non-test file"
		if m.learned[f.key] {
			written, where = m.writtenOutside[f.key], "non-test file outside its package"
		}
		unwritten[name] = !written
		if written {
			continue
		}
		if _, ok := testOnlyOptionAllowed[name]; ok {
			continue
		}
		unset = append(unset, fmt.Sprintf("%s:%d: %s is written by no %s", f.pos.Filename, f.pos.Line, name, where))
	}
	sort.Strings(unset)
	for _, s := range unset {
		t.Errorf("%s: make it a constant, or allow it with a reason", s)
	}
	checkAllowlist(t, "testOnlyOptionAllowed", testOnlyOptionAllowed, unwritten)
}

// checkAllowlist fails on an entry of allow that is gone or whose check
// now passes (dead[name] false), and on an entry with no reason.
func checkAllowlist(t *testing.T, list string, allow map[string]string, dead map[string]bool) {
	t.Helper()
	for name, reason := range allow {
		if d, ok := dead[name]; !ok || !d {
			t.Errorf("%s names %s, which is gone or has a non-test use now; drop the entry", list, name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s entry %s gives no reason", list, name)
		}
	}
}
