package adapt

import (
	"context"
	"testing"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// TestObserversSeeShardedScansOnce runs a plan sharded two ways through
// the three observers. Each must see the logical tree: a sharded scan is
// its Merge node. Walking the shard internals recorded a partition's
// TrueCard under the whole scan's sub-query key (the last shard won) and
// counted every Exchange and shard scan in the drift q-error.
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
	logical, merges := 0, 0
	p.WalkLogical(func(*plan.Node) { logical++ })
	if all := len(p.Nodes()); all <= logical {
		t.Fatalf("plan has %d nodes, %d logical: nothing was sharded", all, logical)
	}

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
	p.WalkLogical(func(n *plan.Node) {
		if n.Op != plan.Merge {
			return
		}
		merges++
		if got := labels[g.Key(g.Bit(n.Alias))]; got != n.TrueCard {
			t.Errorf("label of sharded scan %s = %v, want the Merge node's TrueCard %v", n.Alias, got, n.TrueCard)
		}
		if part := n.Shards[len(n.Shards)-1].TrueCard; part == n.TrueCard {
			t.Errorf("scan %s: last shard holds all %v rows, the test cannot tell it from the whole", n.Alias, part)
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
