// Tests for true-cardinality labeling (truecard.go): canonical-plan shape
// and cache behavior. Sub-plan labels harvested from an executed plan are
// opt.CardsFromPlan's, tested there.
package exec_test

import (
	"testing"

	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/plan"
	"lqo/internal/workload"
)

// TestCardCacheHarvestOffByDefault pins that a miss caches exactly one
// entry — no sub-plan labels — so callers that count executions stay
// correct.
func TestCardCacheHarvestOffByDefault(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.2})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 17, Count: 4, MaxJoins: 2, MaxPreds: 1})
	cache := exec.NewCardCache(exec.New(cat))
	seen := 0
	for _, q := range queries {
		if _, err := cache.TrueCard(q); err != nil {
			t.Fatal(err)
		}
		seen++
		if cache.Len() != seen {
			t.Fatalf("after %d queries cache has %d entries", seen, cache.Len())
		}
	}
}

// TestCanonicalPlanShape checks the canonical plan covers every alias
// exactly once and uses hash joins on connected graphs.
func TestCanonicalPlanShape(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.2})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 19, Count: 6, MaxJoins: 3, MaxPreds: 1})
	for qi, q := range queries {
		p, err := exec.CanonicalPlan(q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if got, want := len(p.Aliases()), len(q.Refs); got != want {
			t.Fatalf("query %d: plan covers %d aliases, query has %d", qi, got, want)
		}
		p.Walk(func(n *plan.Node) {
			if !n.IsLeaf() && n.Op != plan.HashJoin && n.Op != plan.NestedLoopJoin {
				t.Fatalf("query %d: unexpected canonical join op %s", qi, n.Op)
			}
		})
	}
}
