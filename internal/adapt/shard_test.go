package adapt

import (
	"context"
	"testing"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// TestObserversSeeShardedScansOnce runs a plan sharded two ways through
// the three observers. Each must see one node per logical operator: a
// sharded scan is one Merge leaf, labelled with the whole scan's TrueCard.
func TestObserversSeeShardedScansOnce(t *testing.T) {
	f := newFixture(t)
	f.opt.Shards = 2
	q := mustParse(t, "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 1;")
	p, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ex.RunCtx(context.Background(), q, p); err != nil {
		t.Fatal(err)
	}
	logical, merges := len(p.Nodes()), 0

	l := NewLoop(f.sw, &fakeHost{}, NewGate(f.opt, f.ex, GateConfig{}), smallLoopConfig(f))
	l.probation = true
	l.ObserveExec(q, p)

	labels := map[string]float64{}
	for _, s := range l.Collector().Samples() {
		labels[s.Q.Key()] = s.Card
	}
	if len(labels) != logical {
		t.Errorf("collector holds %d labels, want one per logical node (%d)", len(labels), logical)
	}
	g := query.NewJoinGraph(q)
	p.Walk(func(n *plan.Node) {
		if n.Op != plan.Merge {
			return
		}
		merges++
		if got := labels[g.Key(g.Bit(n.Alias))]; got != n.TrueCard {
			t.Errorf("label of sharded scan %s = %v, want the Merge node's TrueCard %v", n.Alias, got, n.TrueCard)
		}
	})
	if merges == 0 {
		t.Fatal("no Merge node in the sharded plan")
	}
	if got := l.Detector().Snapshot().Observations; got != int64(logical) {
		t.Errorf("detector saw %d observations, want %d", got, logical)
	}
	if l.probN != logical {
		t.Errorf("probation audit counted %d nodes, want %d", l.probN, logical)
	}
}
