package serve

import (
	"context"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
)

// newShardFixture builds two servers over the same catalog: one planning
// unsharded trees and one whose pass pipeline shards scans over shards
// partitions, so results can be checked side by side.
func newShardFixture(t *testing.T, shards int) (*Server, *Server) {
	t.Helper()
	cat := datagen.StatsCEB(datagen.Config{Seed: 23, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 23})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 23}); err != nil {
		t.Fatal(err)
	}
	plain := New(cat, opt.New(cat, cost.New(cs), hist), exec.New(cat), Config{})
	so := opt.New(cat, cost.New(cs), hist)
	so.Passes = plan.DefaultPipeline(shards)
	sharded := New(cat, so, exec.New(cat), Config{})
	return plain, sharded
}

// requireShardedCache fails unless s's cached plans hold a Merge leaf and
// no SeqScan leaf: results, charges and feedback of a sharded run equal
// an unsharded one's by design, so only the plan shows that sharding
// happened.
func requireShardedCache(t *testing.T, s *Server) {
	t.Helper()
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	merges := 0
	for key, el := range s.cache.entries {
		el.Value.(*cacheEntry).p.Walk(func(n *plan.Node) {
			switch {
			case n.Op == plan.Merge && n.IsLeaf():
				merges++
			case n.Op == plan.SeqScan:
				t.Fatalf("cached plan %q holds an unsharded SeqScan of %s", key, n.Alias)
			}
		})
	}
	if merges == 0 {
		t.Fatalf("the %d cached plans hold no Merge leaf", len(s.cache.entries))
	}
}

func TestShardedServingMatchesUnsharded(t *testing.T) {
	plain, sharded := newShardFixture(t, 2)
	sql := "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 5;"
	want, err := plain.Query(context.Background(), "a", sql)
	if err != nil {
		t.Fatal(err)
	}
	// Cold and cached sharded runs both reproduce the unsharded result —
	// Count, Value and charged WorkUnits.
	for i, wantCached := range []bool{false, true} {
		got, err := sharded.Query(context.Background(), "a", sql)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cached != wantCached {
			t.Fatalf("run %d: cached = %v, want %v", i, got.Cached, wantCached)
		}
		if got.Count != want.Count || got.Value != want.Value || got.Latency != want.Latency {
			t.Fatalf("run %d: sharded result %+v, unsharded %+v", i, got, want)
		}
	}
	// The cached plan really is a sharded tree.
	if len(sharded.cache.entries) != 1 {
		t.Fatalf("sharded cache holds %d plans", len(sharded.cache.entries))
	}
	requireShardedCache(t, sharded)
}

func TestShardedPreparedRebindAndInvalidate(t *testing.T) {
	plain, sharded := newShardFixture(t, 2)
	tpl := "SELECT COUNT(*) FROM posts WHERE posts.score > ?;"
	ps, err := plain.Prepare(tpl)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sharded.Prepare(tpl)
	if err != nil {
		t.Fatal(err)
	}
	for i, arg := range []int64{5, 50, 5} {
		want, err := plain.Exec(context.Background(), "a", ps, arg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Exec(context.Background(), "a", ss, arg)
		if err != nil {
			t.Fatal(err)
		}
		// The second and third bindings rebind predicates onto the cached
		// generic plan's Merge leaves — results must still match.
		if got.Count != want.Count || got.Latency != want.Latency {
			t.Fatalf("arg %d: sharded %+v, unsharded %+v", arg, got, want)
		}
		// The statement finds its sharded entry again (one cache key).
		if got.Cached != want.Cached || (i == 1 && !got.Cached) {
			t.Fatalf("run %d: sharded cached = %v, unsharded %v, want a hit on run 1", i, got.Cached, want.Cached)
		}
	}
	requireShardedCache(t, sharded)
}

// TestShardedFeedbackUsesLogicalCards: feedback harvested from a sharded
// plan must describe whole scans, so replans and drift checks never see
// per-shard partial counts.
func TestShardedFeedbackUsesLogicalCards(t *testing.T) {
	plain, sharded := newShardFixture(t, 2)
	sql := "SELECT COUNT(*) FROM posts WHERE posts.score > 5;"
	if _, err := plain.Query(context.Background(), "a", sql); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Query(context.Background(), "a", sql); err != nil {
		t.Fatal(err)
	}
	requireShardedCache(t, sharded)
	if plain.FeedbackLen() != sharded.FeedbackLen() {
		t.Fatalf("feedback keys: plain %d, sharded %d — shard internals leaked", plain.FeedbackLen(), sharded.FeedbackLen())
	}
	q, err := sqlx.Parse(sql, plain.cat)
	if err != nil {
		t.Fatal(err)
	}
	g := query.NewJoinGraph(q)
	for m := uint64(1); m < 1<<len(g.Aliases); m++ {
		k := g.Key(m)
		pv, pok := plain.fb.Truth(k)
		sv, sok := sharded.fb.Truth(k)
		if pok != sok || pv != sv {
			t.Fatalf("sharded feedback[%q] = %v (ok=%v), plain = %v (ok=%v)", k, sv, sok, pv, pok)
		}
	}
}
