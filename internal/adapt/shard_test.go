package adapt

import (
	"context"
	"reflect"
	"testing"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// TestObserversSeeShardedScansOnce runs a plan sharded two ways through
// the three observers. Each must see one node per logical operator: a
// sharded scan is one Merge leaf, labelled with the whole scan's card.
func TestObserversSeeShardedScansOnce(t *testing.T) {
	f := newFixture(t)
	f.opt.Passes = plan.DefaultPipeline(2)
	q := mustParse(t, "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 1;")
	p, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.ex.RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	logical, merges := len(p.Nodes()), 0

	l := NewLoop(f.sw, &fakeHost{}, NewGate(f.opt, f.ex, GateConfig{}), smallLoopConfig(f))
	l.probation = true
	l.ObserveRun(query.NewJoinGraph(q), p, res.Cards)

	labels := map[string]float64{}
	for _, s := range l.col.Samples() {
		labels[s.Q.Key()] = s.Card
	}
	if len(labels) != logical {
		t.Errorf("collector holds %d labels, want one per logical node (%d)", len(labels), logical)
	}
	g := query.NewJoinGraph(q)
	for i, n := range p.Nodes() {
		if n.Op != plan.Merge {
			continue
		}
		merges++
		if got := labels[g.Key(g.Bit(n.Alias))]; got != res.Cards[i] {
			t.Errorf("label of sharded scan %s = %v, want the Merge node's card %v", n.Alias, got, res.Cards[i])
		}
	}
	if merges == 0 {
		t.Fatal("no Merge node in the sharded plan")
	}
	if got := l.det.Snapshot().Observations; got != int64(logical) {
		t.Errorf("detector saw %d observations, want %d", got, logical)
	}
	if l.probN != logical {
		t.Errorf("probation audit counted %d nodes, want %d", l.probN, logical)
	}

	// ObserveExec, kept for benchmark/trace.go, reads the same record off
	// a RunAnalyze-annotated tree.
	if _, _, err := f.ex.RunAnalyze(context.Background(), q, p); err != nil {
		t.Fatal(err)
	}
	traced := NewLoop(f.sw, &fakeHost{}, NewGate(f.opt, f.ex, GateConfig{}), smallLoopConfig(f))
	traced.ObserveExec(q, p)
	if got, want := traced.col.Samples(), l.col.Samples(); !reflect.DeepEqual(got, want) {
		t.Errorf("ObserveExec labels %v, ObserveRun's %v", got, want)
	}
}
