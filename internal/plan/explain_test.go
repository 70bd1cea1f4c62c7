package plan

import (
	"strings"
	"testing"
	"time"
)

func TestRenderAnalyze(t *testing.T) {
	p := samplePlan()
	p.EstCard = 100
	p.Left.EstCard = 50

	actuals := map[*Node]Actuals{
		p:      {Rows: 90, Work: 123.4, Wall: 1500 * time.Microsecond, Batches: 2, Probed: 7},
		p.Left: {Rows: 45, Work: 10, Wall: 20 * time.Microsecond, Batches: 1},
		// p.Right intentionally missing: renders "actual=-".
	}
	out := RenderAnalyze(p, func(n *Node) (Actuals, bool) {
		a, ok := actuals[n]
		return a, ok
	})

	for _, want := range []string{
		"HashJoin on a.id = b.a_id  (est=100 actual=90 work=123.4 time=1.5ms batches=2 probed=7)",
		"SeqScan a filter: a.v > 3  (est=50 actual=45 work=10.0 time=20µs batches=1)",
		"IndexScan b  (est=0 actual=-)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Children indent under the join.
	if !strings.Contains(out, "\n  SeqScan") || !strings.Contains(out, "\n  IndexScan") {
		t.Fatalf("children not indented:\n%s", out)
	}
}
