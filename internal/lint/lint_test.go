package lint_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"lqo/internal/lint"
	"lqo/internal/lint/analysis"
	"lqo/internal/lint/determinism"
	"lqo/internal/lint/load"
)

// TestScopesNameModulePackages: every path an analyzer's scope names
// must be a module package or have one under it, so renaming a package
// fails here instead of silently dropping it from a contract.
func TestScopesNameModulePackages(t *testing.T) {
	root, err := load.FindModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	paths, _, err := load.ModulePackages(root)
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	scopes := map[string]analysis.Scope{"determinism (reference output)": determinism.ReferenceScope}
	for _, a := range lint.Analyzers() {
		scopes[a.Name] = a.Scope
	}
	for name, s := range scopes {
		for _, dir := range append(append([]string(nil), s.Include...), s.Exclude...) {
			under := analysis.Scope{Include: []string{dir}}
			found := false
			for _, p := range paths {
				found = found || under.Contains(p)
			}
			if !found {
				t.Errorf("%s: scope names %q, which holds no package of the module", name, dir)
			}
		}
	}
}

// TestBrokenFixtureFails is the anti-vacuity regression test: the CLI
// must exit 1 on the violation-ridden fixture with every analyzer in
// the suite represented in the output. A refactor that silently makes
// the multichecker match zero packages (or an analyzer stop firing)
// trips this before it can greenwash CI.
func TestBrokenFixtureFails(t *testing.T) {
	var stdout, stderr strings.Builder
	code := lint.Main([]string{"testdata/src/broken"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("lqo-lint on broken fixture: exit %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(stdout.String(), a.Name+": ") {
			t.Errorf("analyzer %s reported nothing on the broken fixture; it has stopped firing\noutput:\n%s",
				a.Name, stdout.String())
		}
	}
}

// TestJSONOutput pins the -json line protocol: one JSON object per line
// with the stable field names the CI problem matcher keys on, suppressed
// findings included (text mode hides them), exit code still driven by the
// unsuppressed count only.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr strings.Builder
	code := lint.Main([]string{"-json", "testdata/src/broken"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("lqo-lint -json on broken fixture: exit %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	type line struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
	}
	known := map[string]bool{}
	for _, a := range lint.Analyzers() {
		known[a.Name] = true
	}
	seen := map[string]bool{}
	suppressed := 0
	var lines []line
	for i, raw := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("line %d is not a JSON object: %v\n%s", i+1, err, raw)
		}
		if !strings.HasSuffix(l.File, "broken/broken.go") {
			t.Errorf("line %d: file = %q, want a broken/broken.go path", i+1, l.File)
		}
		if l.Line <= 0 {
			t.Errorf("line %d: line = %d, want > 0", i+1, l.Line)
		}
		if !known[l.Analyzer] {
			t.Errorf("line %d: analyzer %q is not in the registry", i+1, l.Analyzer)
		}
		if l.Message == "" {
			t.Errorf("line %d: empty message", i+1)
		}
		seen[l.Analyzer] = true
		if l.Suppressed {
			suppressed++
		}
		lines = append(lines, l)
	}
	for name := range known {
		if !seen[name] {
			t.Errorf("analyzer %s missing from -json output on the broken fixture", name)
		}
	}
	if suppressed == 0 {
		t.Error("-json output contains no suppressed finding; the waiver audit trail is gone")
	}
	// The acceptance-criterion leak: bufown must flag the buffer lost on
	// the unexecuted error-return path, and -json must carry it verbatim.
	found := false
	for _, l := range lines {
		if l.Analyzer == "bufown" && strings.Contains(l.Message, "may not be returned to the pool on every path") && !l.Suppressed {
			found = true
		}
	}
	if !found {
		t.Error("-json output lacks the bufown early-return leak finding")
	}
}

// TestMainRejectsZeroPackages: a run that matches nothing must be a hard
// error (exit 2), never a vacuous pass.
func TestMainRejectsZeroPackages(t *testing.T) {
	var stdout, stderr strings.Builder
	code := lint.Main([]string{"no/such/dir"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("lqo-lint no/such/dir: exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
}

// maxWaivers is the waiver budget: the most suppressed findings the real
// tree may carry. Lower it when a waiver goes; raising it needs a reason.
const maxWaivers = 2

// TestRealTreeClean lints the whole module: the tree must be clean, its
// suppressed findings must fit the waiver budget, every ignore directive
// must suppress one of them, and the run must cover a sane number of
// packages (another anti-vacuity guard — 37 at the time of writing).
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint run skipped in -short mode")
	}
	root, err := load.FindModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	res, err := lint.RunTree(root)
	if err != nil {
		t.Fatalf("RunTree: %v", err)
	}
	if res.Packages < 20 {
		t.Errorf("lint run matched only %d packages, want >= 20; the loader is dropping packages", res.Packages)
	}
	active := lint.Unsuppressed(res.Findings)
	for _, f := range active {
		t.Errorf("unexpected finding on the real tree: %s", f)
	}
	if waived := len(res.Findings) - len(active); waived > maxWaivers {
		t.Errorf("%d suppressed findings on the real tree, budget %d:", waived, maxWaivers)
		for _, f := range res.Findings {
			if f.Suppressed {
				t.Errorf("  %s", f)
			}
		}
	}
	// A directive that suppresses nothing is a dead waiver the budget
	// cannot see: it would silently cover the next finding on its lines.
	waived := map[string]bool{}
	for _, f := range res.Findings {
		if f.Suppressed {
			waived[fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)] = true
		}
	}
	for _, d := range treeDirectives(t, root) {
		if !waived[fmt.Sprintf("%s:%d", d.File, d.Line)] && !waived[fmt.Sprintf("%s:%d", d.File, d.Line+1)] {
			t.Errorf("%s:%d: lqolint:ignore %s suppresses no finding; delete it", d.File, d.Line, strings.Join(d.Analyzers, ","))
		}
	}
}

// treeDirectives parses the ignore directives of every file RunTree
// lints: the non-test Go files of each module package.
func treeDirectives(t *testing.T, root string) []analysis.Directive {
	t.Helper()
	_, dirs, err := load.ModulePackages(root)
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, dir := range dirs {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	return analysis.Directives(fset, files)
}
