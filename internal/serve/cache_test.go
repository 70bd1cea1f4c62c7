package serve

import (
	"fmt"
	"testing"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
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

// TestPlanCacheCheckoutSurvivesRebind: a checkout copies the nodes and
// shares the Preds/Cond slices, so what a prepared statement does to its
// copy — replace every leaf's Preds, run it, annotate it — must not show
// in the next checkout, and the checkout itself is a single allocation.
func TestPlanCacheCheckoutSurvivesRebind(t *testing.T) {
	pred := func(v int64) []query.Pred {
		return []query.Pred{{Alias: "a", Column: "x", Op: query.Gt, Val: data.IntVal(v)}}
	}
	cond := []query.Join{{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"}}
	orig := plan.NewJoin(plan.HashJoin,
		plan.NewJoin(plan.HashJoin, plan.NewScan(plan.SeqScan, "a", "a", pred(1)), plan.NewScan(plan.SeqScan, "b", "b", nil), cond),
		plan.NewScan(plan.IndexScan, "c", "c", pred(2)), cond)
	c := NewPlanCache(0)
	c.Put("k", orig)
	want := orig.Fingerprint()
	for i := int64(0); i < 3; i++ {
		p := c.Get("k")
		if p.Fingerprint() != want {
			t.Fatalf("checkout %d differs from the plan put: %s", i, p.Fingerprint())
		}
		p.Walk(func(n *plan.Node) {
			if n.IsLeaf() {
				n.Preds = pred(100 + i) // the rebind replaces, never writes through
			}
			n.TrueCard = float64(i + 1)
		})
		p.Left, p.Right = p.Right, p.Left
	}
	// The producer's tree is not the cache's either.
	orig.Left.Left.Preds[0].Val = data.IntVal(77)
	if got := c.Get("k"); got.Fingerprint() != want || got.TrueCard != 0 {
		t.Fatalf("cached plan changed under its checkouts: %s", got.Fingerprint())
	}
	if allocs := testing.AllocsPerRun(50, func() { c.Get("k") }); allocs > 1 {
		t.Fatalf("checkout of an unsharded plan allocates %.0f objects, want 1", allocs)
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
	if c.Len() != 0 {
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
	if c.Len() != 512 {
		t.Fatalf("Len = %d, want 512", c.Len())
	}
}
