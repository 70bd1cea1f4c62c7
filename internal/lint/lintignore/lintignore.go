// Package lintignore polices the suppression facility itself: every
// //lqolint:ignore directive must name a known analyzer and carry a
// human-readable reason. A suppression with no reason is indistinguishable
// from a silenced bug, so the suite rejects it — the directive still
// suppresses its target, but the lint run fails with the single
// actionable "missing reason" finding until the author explains it.
package lintignore

import (
	"lqo/internal/lint/analysis"
)

// New returns the suppression-directive checker for a suite of rules:
// a directive may name any of them, lintignore itself, or "all". The
// registry constructs it, so the suite is the only list of names.
func New(rules []*analysis.Analyzer) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "lintignore",
		Doc: "//lqolint:ignore directives must name a known analyzer and " +
			"give a non-empty reason",
	}
	known := map[string]bool{"all": true, a.Name: true}
	for _, r := range rules {
		known[r.Name] = true
	}
	a.Run = func(pass *analysis.Pass) error { return run(pass, known) }
	return a
}

func run(pass *analysis.Pass, known map[string]bool) error {
	for _, d := range analysis.Directives(pass.Fset, pass.Files) {
		if len(d.Analyzers) == 0 {
			pass.Reportf(d.Pos, "lqolint:ignore directive names no analyzer; use //lqolint:ignore <analyzer> <reason>")
			continue
		}
		for _, a := range d.Analyzers {
			if !known[a] {
				pass.Reportf(d.Pos, "lqolint:ignore names unknown analyzer %q", a)
			}
		}
		if d.Reason == "" {
			pass.Reportf(d.Pos, "lqolint:ignore directive has no reason; every suppression must say why the violation is intentional")
		}
	}
	return nil
}
