package lint_test

import (
	"testing"

	"lqo/internal/lint"
	"lqo/internal/lint/analysistest"
	"lqo/internal/lint/floateq"
)

// Each analyzer has a golden fixture testdata/src/<name>_a containing
// both violations (// want lines) and true negatives (clean code the
// analyzer must stay silent on).

// TestGolden runs every registered analyzer over its fixture, so an
// analyzer cannot ship without its golden run.
func TestGolden(t *testing.T) {
	for _, a := range lint.Analyzers() {
		analysistest.Run(t, "testdata/src", a, a.Name+"_a")
	}
}

// golden runs one registered analyzer's golden fixture on its own, so
// one analyzer's run can be picked with -run (go test -run TestBufOwn).
func golden(t *testing.T, name string) {
	t.Helper()
	for _, a := range lint.Analyzers() {
		if a.Name == name {
			analysistest.Run(t, "testdata/src", a, name+"_a")
			return
		}
	}
	t.Fatalf("no registered analyzer %q", name)
}

func TestAtomicPub(t *testing.T)   { golden(t, "atomicpub") }
func TestBufOwn(t *testing.T)      { golden(t, "bufown") }
func TestCardClamp(t *testing.T)   { golden(t, "cardclamp") }
func TestCtxProp(t *testing.T)     { golden(t, "ctxprop") }
func TestDeterminism(t *testing.T) { golden(t, "determinism") }
func TestErrFlow(t *testing.T)     { golden(t, "errflow") }
func TestFloatEq(t *testing.T)     { golden(t, "floateq") }
func TestGoJoin(t *testing.T)      { golden(t, "gojoin") }
func TestGuardSafe(t *testing.T)   { golden(t, "guardsafe") }
func TestKeyCanon(t *testing.T)    { golden(t, "keycanon") }
func TestLintIgnore(t *testing.T)  { golden(t, "lintignore") }
func TestPassPure(t *testing.T)    { golden(t, "passpure") }
func TestPoolRet(t *testing.T)     { golden(t, "poolret") }

// TestSuppression runs floateq over a fixture whose violations are
// silenced by //lqolint:ignore directives in every supported placement;
// only the deliberately mis-scoped directives let diagnostics through.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, "testdata/src", floateq.Analyzer, "ignore_a")
}
