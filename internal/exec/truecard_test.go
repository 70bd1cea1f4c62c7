// Tests for sub-plan cardinality labeling (truecard.go): canonical-plan
// shape, cache behavior, and the opt-in sub-plan harvest.
package exec_test

import (
	"context"
	"testing"

	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/plan"
	"lqo/internal/workload"
)

// TestCardCacheHarvest checks that one execution with Harvest labels
// every sub-plan of the canonical plan, and that each harvested label
// equals the cardinality of executing that sub-query directly.
func TestCardCacheHarvest(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.2})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 17, Count: 8, MaxJoins: 3, MaxPreds: 2})

	for qi, q := range queries {
		if len(q.Refs) < 3 {
			continue
		}
		cache := exec.NewCardCache(exec.New(cat))
		cache.Harvest = true
		if _, err := cache.TrueCard(q); err != nil {
			continue // e.g. intermediate cap exceeded; covered elsewhere
		}
		// One execution must label strictly more than the root: every
		// sub-plan of the canonical left-deep tree (joins and leaves).
		p, err := exec.CanonicalPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		wantLabels := len(p.Nodes())
		if got := cache.Len(); got < wantLabels {
			t.Fatalf("query %d: harvested %d labels, want >= %d", qi, got, wantLabels)
		}

		// Each harvested sub-plan label must equal direct execution of the
		// corresponding sub-query (checked via a fresh, harvest-free cache).
		fresh := exec.NewCardCache(exec.New(cat))
		res, err := exec.New(cat).RunCtx(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		_ = res
		for _, n := range p.Nodes() {
			sq := n.Subquery(q)
			want, err := fresh.TrueCard(sq)
			if err != nil {
				t.Fatalf("query %d: sub-query %s: %v", qi, sq.Key(), err)
			}
			got, err := cache.TrueCard(sq) // must be a cache hit with the harvested value
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("query %d: sub-plan %v label %v != direct %v", qi, n.Aliases(), got, want)
			}
		}
	}
}

// TestCardCacheHarvestOffByDefault pins the default: a miss caches
// exactly one entry, so callers that count executions stay correct.
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
