// Package lint is the lqolint multichecker: it registers the workbench's
// invariant analyzers (see DESIGN.md "Static invariants"), loads packages
// with internal/lint/load, runs every analyzer over every package, and
// applies //lqolint:ignore suppressions. cmd/lqo-lint is a thin CLI over
// Run/Main.
package lint

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lqo/internal/lint/analysis"
	"lqo/internal/lint/atomicpub"
	"lqo/internal/lint/bufown"
	"lqo/internal/lint/cardclamp"
	"lqo/internal/lint/ctxprop"
	"lqo/internal/lint/determinism"
	"lqo/internal/lint/errflow"
	"lqo/internal/lint/floateq"
	"lqo/internal/lint/gojoin"
	"lqo/internal/lint/guardsafe"
	"lqo/internal/lint/keycanon"
	"lqo/internal/lint/lintignore"
	"lqo/internal/lint/load"
	"lqo/internal/lint/passpure"
	"lqo/internal/lint/poolret"
)

// suite is the registry: every rule, plus the lintignore policer built
// from their names, in diagnostic-name order.
var suite = func() []*analysis.Analyzer {
	rules := []*analysis.Analyzer{
		atomicpub.Analyzer,
		bufown.Analyzer,
		cardclamp.Analyzer,
		ctxprop.Analyzer,
		determinism.Analyzer,
		errflow.Analyzer,
		floateq.Analyzer,
		gojoin.Analyzer,
		guardsafe.Analyzer,
		keycanon.Analyzer,
		passpure.Analyzer,
		poolret.Analyzer,
	}
	all := append(rules, lintignore.New(rules))
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}()

// Analyzers returns the registered suite in diagnostic-name order.
func Analyzers() []*analysis.Analyzer {
	return append([]*analysis.Analyzer(nil), suite...)
}

// Finding is one diagnostic after the suppression pass. Suppressed
// findings (a //lqolint:ignore directive covers them) are retained so
// machine consumers can audit waivers; human output and exit codes only
// count the unsuppressed ones.
type Finding struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Result summarizes one lint run.
type Result struct {
	Packages int
	Findings []Finding
}

// RunPackage applies the whole suite to one loaded package, returning
// suppression-filtered findings.
func RunPackage(pkg *load.Package) ([]Finding, error) {
	var diags []analysis.Diagnostic
	for _, a := range Analyzers() {
		ds, err := analysis.RunAnalyzer(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	kept, suppressed := analysis.Partition(pkg.Fset, diags, analysis.Directives(pkg.Fset, pkg.Files))
	var out []Finding
	for _, d := range kept {
		out = append(out, Finding{Analyzer: d.Analyzer, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
	}
	for _, d := range suppressed {
		out = append(out, Finding{Analyzer: d.Analyzer, Pos: pkg.Fset.Position(d.Pos), Message: d.Message, Suppressed: true})
	}
	return out, nil
}

// Unsuppressed filters findings down to those not covered by an ignore
// directive — the set that fails a run.
func Unsuppressed(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// RunTree lints every buildable package of the module rooted at root.
func RunTree(root string) (*Result, error) {
	paths, dirs, err := load.ModulePackages(root)
	if err != nil {
		return nil, err
	}
	l := load.NewLoader(root)
	// One `go list -export -deps` resolves (and, if stale, rebuilds)
	// export data for every dependency up front.
	if err := l.Prefetch("./..."); err != nil {
		return nil, err
	}
	res := &Result{}
	for _, ip := range paths {
		pkg, err := l.LoadDir(dirs[ip], ip)
		if err != nil {
			return nil, err
		}
		fs, err := RunPackage(pkg)
		if err != nil {
			return nil, err
		}
		res.Packages++
		res.Findings = append(res.Findings, fs...)
	}
	sortFindings(res.Findings)
	return res, nil
}

// RunDirs lints stand-alone package directories (fixtures outside the
// module build, e.g. internal/lint/testdata/src/broken). Each directory
// is loaded with its parent as a GOPATH-style source root.
func RunDirs(dirs ...string) (*Result, error) {
	res := &Result{}
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		l := load.NewLoader("", filepath.Dir(abs))
		pkg, err := l.LoadDir(abs, filepath.Base(abs))
		if err != nil {
			return nil, err
		}
		fs, err := RunPackage(pkg)
		if err != nil {
			return nil, err
		}
		res.Packages++
		res.Findings = append(res.Findings, fs...)
	}
	sortFindings(res.Findings)
	return res, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Main is the lqo-lint CLI: it lints the module containing the working
// directory (args naming existing directories are linted as stand-alone
// fixture packages instead) and reports findings one per line. Exit
// codes: 0 clean, 1 findings, 2 usage or load failure.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lqo-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list registered analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit one JSON diagnostic per line (includes suppressed findings)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lqo-lint [-list] [-json] [./... | fixture-dir...]\n\n")
		fmt.Fprintf(stderr, "Runs the lqolint analyzer suite. With no arguments (or ./...)\nit lints every package of the enclosing module.\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var fixtureDirs []string
	wholeModule := fs.NArg() == 0
	for _, a := range fs.Args() {
		if a == "./..." || a == "..." {
			wholeModule = true
			continue
		}
		if st, err := os.Stat(a); err == nil && st.IsDir() {
			fixtureDirs = append(fixtureDirs, a)
			continue
		}
		fmt.Fprintf(stderr, "lqo-lint: argument %q is neither ./... nor a directory\n", a)
		return 2
	}

	res := &Result{}
	if wholeModule {
		cwd, err := os.Getwd()
		if err == nil {
			var root string
			root, err = load.FindModuleRoot(cwd)
			if err == nil {
				var r *Result
				r, err = RunTree(root)
				if err == nil {
					res.Packages += r.Packages
					res.Findings = append(res.Findings, r.Findings...)
				}
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "lqo-lint: %v\n", err)
			return 2
		}
	}
	if len(fixtureDirs) > 0 {
		r, err := RunDirs(fixtureDirs...)
		if err != nil {
			fmt.Fprintf(stderr, "lqo-lint: %v\n", err)
			return 2
		}
		res.Packages += r.Packages
		res.Findings = append(res.Findings, r.Findings...)
	}
	if res.Packages == 0 {
		// A lint run that matches nothing must fail loudly, not pass
		// vacuously (the CI job depends on this).
		fmt.Fprintf(stderr, "lqo-lint: matched no packages\n")
		return 2
	}
	active := Unsuppressed(res.Findings)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		for _, f := range res.Findings {
			if err := enc.Encode(jsonFinding{
				File:       relPath(f.Pos.Filename),
				Line:       f.Pos.Line,
				Analyzer:   f.Analyzer,
				Message:    f.Message,
				Suppressed: f.Suppressed,
			}); err != nil {
				fmt.Fprintf(stderr, "lqo-lint: %v\n", err)
				return 2
			}
		}
	} else {
		for _, f := range active {
			fmt.Fprintln(stdout, rel(f))
		}
	}
	fmt.Fprintf(stderr, "lqo-lint: %d packages, %d findings (%d suppressed)\n", res.Packages, len(active), len(res.Findings)-len(active))
	if len(active) > 0 {
		return 1
	}
	return 0
}

// jsonFinding is the -json line format — one object per line, stable
// field names, for the CI problem matcher.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// rel shortens absolute finding paths relative to the working directory
// for readable output.
func rel(f Finding) string {
	f.Pos.Filename = relPath(f.Pos.Filename)
	return f.String()
}

func relPath(p string) string {
	if cwd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(cwd, p); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
	}
	return p
}
