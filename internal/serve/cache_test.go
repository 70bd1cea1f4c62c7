package serve

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"lqo/internal/plan"
	"lqo/internal/sqlx"
)

func scanPlan(est, truth float64) *plan.Node {
	n := plan.NewScan(plan.SeqScan, "t", "t", nil)
	n.EstCard, n.TrueCard = est, truth
	return n
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := NewPlanCache(2)
	c.Put("a", scanPlan(1, 1))
	c.Put("b", scanPlan(1, 1))
	if c.Get("a") == nil { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", scanPlan(1, 1))
	if c.Get("b") != nil {
		t.Fatal("LRU entry b survived eviction")
	}
	if c.Get("a") == nil || c.Get("c") == nil {
		t.Fatal("recently used entries evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d", st.Evictions)
	}
}

func TestPlanCacheGetReturnsClone(t *testing.T) {
	c := NewPlanCache(0)
	c.Put("k", scanPlan(10, 0))
	p := c.Get("k")
	p.TrueCard = 99 // executor annotation on the caller's copy
	if q := c.Get("k"); q.TrueCard == 99 {
		t.Fatal("cache handed out a shared tree")
	}
}

// TestPlanCacheCheckoutSurvivesRebind: a checkout hands out the stored
// plan itself and allocates nothing, and serving never writes to it:
// after ad-hoc hits and prepared hits under different bindings, each
// stored tree keeps its fingerprint, EstCard bits and TrueCards.
func TestPlanCacheCheckoutSurvivesRebind(t *testing.T) {
	s, stmt := newHitFixture(t, 0)
	ctx := context.Background()
	sql := "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.views > 100;"
	q, err := sqlx.Parse(sql, s.cat)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{q.Key(), stmt.e.Load().key}
	serve := func(i int) {
		t.Helper()
		for _, run := range []func() (*Result, error){
			func() (*Result, error) { return s.Query(ctx, "a", sql) },
			func() (*Result, error) { return s.Exec(ctx, "a", stmt, hitBindings[i%len(hitBindings)]) },
		} {
			if res, err := run(); err != nil || (i > 0 && !res.Cached) {
				t.Fatalf("request %d: %+v, %v", i, res, err)
			}
		}
	}
	type snapshot struct {
		fp         string
		est, truth []uint64
	}
	snap := func(p *plan.Node) snapshot {
		sn := snapshot{fp: p.Fingerprint()}
		p.Walk(func(n *plan.Node) {
			sn.est = append(sn.est, math.Float64bits(n.EstCard))
			sn.truth = append(sn.truth, math.Float64bits(n.TrueCard))
		})
		return sn
	}
	serve(0)
	stored := make([]*plan.Node, len(keys))
	before := make([]snapshot, len(keys))
	for i, k := range keys {
		if stored[i], _, _ = s.cache.checkout(k); stored[i] == nil {
			t.Fatalf("key %d not cached", i)
		}
		before[i] = snap(stored[i])
	}
	if !slices.ContainsFunc(stored[1].Nodes(), (*plan.Node).Generic) {
		t.Fatal("the prepared statement's cached plan has no generic leaf")
	}
	for i := 1; i <= 8; i++ {
		serve(i)
	}
	for i, k := range keys {
		p, _, _ := s.cache.checkout(k)
		if p != stored[i] {
			t.Fatalf("key %d: checkout returned a different tree", i)
		}
		if got := snap(p); !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("key %d: stored plan changed under its hits:\n before %+v\n after  %+v", i, before[i], got)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { s.cache.checkout(keys[0]) }); allocs != 0 {
		t.Fatalf("checkout allocates %.0f objects, want 0", allocs)
	}
}

func TestPlanCacheObserveDrift(t *testing.T) {
	c := NewPlanCache(0)
	c.Put("k", scanPlan(10, 0))

	ok := scanPlan(10, 12) // q-error 1.2, inside threshold
	if c.Observe("k", ok, 4) {
		t.Fatal("in-threshold feedback invalidated")
	}
	if c.Get("k") == nil {
		t.Fatal("entry lost")
	}

	bad := scanPlan(10, 1000) // q-error 100
	if !c.Observe("k", bad, 4) {
		t.Fatal("drifted feedback not invalidated")
	}
	if len(c.entries) != 0 {
		t.Fatal("invalidated entry still cached")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d", st.Invalidations)
	}
	// Observing a missing key is a no-op.
	if c.Observe("k", bad, 4) {
		t.Fatal("missing key invalidated")
	}
}

func TestPlanCacheObserveDisabledAndShapeMismatch(t *testing.T) {
	c := NewPlanCache(0)
	c.Put("k", scanPlan(10, 0))
	bad := scanPlan(10, 1000)
	if c.Observe("k", bad, 1) || c.Observe("k", bad, 0) {
		t.Fatal("disabled threshold invalidated")
	}
	// A tree of a different shape (stale feedback) must not misjudge.
	join := plan.NewJoin(plan.HashJoin, scanPlan(1, 1), scanPlan(1, 1), nil)
	join.EstCard, join.TrueCard = 1, 1e9
	if c.Observe("k", join, 4) {
		t.Fatal("shape-mismatched feedback invalidated")
	}
}

func TestPlanCacheCapacityDefault(t *testing.T) {
	c := NewPlanCache(-5)
	for i := 0; i < 600; i++ {
		c.Put(fmt.Sprintf("k%d", i), scanPlan(1, 1))
	}
	if len(c.entries) != 512 {
		t.Fatalf("Len = %d, want 512", len(c.entries))
	}
}
