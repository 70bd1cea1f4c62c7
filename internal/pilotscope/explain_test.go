package pilotscope

import (
	"context"
	"strings"
	"testing"

	"lqo/internal/plan"
)

// multiJoinSQL returns a test statement whose plan has at least one join,
// so the rendered plan covers more than a single scan.
func multiJoinSQL(t *testing.T, w *world) string {
	t.Helper()
	for _, sql := range w.test {
		q := mustParse(t, w, sql)
		if len(q.Refs) >= 2 {
			return sql
		}
	}
	t.Fatal("no multi-join statement in test workload")
	return ""
}

func TestExplainAnalyze(t *testing.T) {
	w := getWorld(t)
	sql := multiJoinSQL(t, w)
	sess := &Session{}
	rendered, res, err := w.eng.ExplainAnalyze(context.Background(), sess, sql)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Plan == nil {
		t.Fatal("no result")
	}
	for _, want := range []string{"est=", "actual=", "work=", "batches="} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, rendered)
		}
	}
	if strings.Contains(rendered, "actual=-") {
		t.Fatalf("executed plan has un-instrumented nodes:\n%s", rendered)
	}
	// The rendering is the per-node view followed by the rewrite-pass
	// trace: one line per plan node, then the trace block.
	planPart, _, hasTrace := strings.Cut(rendered, "Rewrite passes:")
	if !hasTrace {
		t.Fatalf("rendered output missing the rewrite-pass trace:\n%s", rendered)
	}
	lines := strings.Count(strings.TrimRight(planPart, "\n"), "\n") + 1
	if want := len(res.Plan.Nodes()); lines != want {
		t.Fatalf("rendered %d plan lines for %d nodes:\n%s", lines, want, rendered)
	}
	// EXPLAIN ANALYZE must report exactly what plain execution reports.
	plain, err := w.eng.ExecuteSQL(context.Background(), &Session{}, sql)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Count != res.Count || plain.Value != res.Value || plain.Latency != res.Latency {
		t.Fatalf("EXPLAIN ANALYZE result %+v, plain execution %+v", res, plain)
	}
}

func TestExplainAnalyzeHonorsSession(t *testing.T) {
	w := getWorld(t)
	sql := multiJoinSQL(t, w)
	sess := &Session{}
	if err := w.eng.Push(context.Background(), sess, PushHints, plan.HintSet{NoHashJoin: true, NoMergeJoin: true}); err != nil {
		t.Fatal(err)
	}
	rendered, res, err := w.eng.ExplainAnalyze(context.Background(), sess, sql)
	if err != nil {
		t.Fatal(err)
	}
	res.Plan.Walk(func(n *plan.Node) {
		if n.Op == plan.HashJoin || n.Op == plan.MergeJoin {
			t.Fatalf("pushed hints ignored:\n%s", rendered)
		}
	})
}

// TestExplainAnalyzeShowsIndexProbe: a join that probed a scan through its
// index says so (probed=), and the scan it skipped emitted no batch.
func TestExplainAnalyzeShowsIndexProbe(t *testing.T) {
	w := getWorld(t)
	for _, sql := range w.test {
		rendered, _, err := w.eng.ExplainAnalyze(context.Background(), &Session{}, sql)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(rendered, "probed=") {
			if !strings.Contains(rendered, "batches=0") {
				t.Fatalf("a join probed through an index, but every scan emitted batches:\n%s", rendered)
			}
			return
		}
	}
	t.Fatal("no test statement's plan probed a scan through its index")
}
