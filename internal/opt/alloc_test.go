package opt

import (
	"context"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/query"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestOptimizeAllocations pins what a cold OptimizeCtx allocates: the
// join graph, one estimate per mask answered in one call (no sub-query
// slab) and one memo for the whole DP, the chosen plan's n scans and n-1
// joins, and the rewrite passes — nothing per alias subset. A 6-way join
// has 63 subsets, so an allocation per subset breaks its ceiling.
func TestOptimizeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 7})
	for _, c := range []struct {
		est    string
		tables int
		max    float64
	}{{"histogram", 4, 31}, {"histogram", 6, 40}, {"spn", 4, 31}, {"spn", 6, 40}} {
		est, err := cardest.ByName(c.est)
		if err != nil {
			t.Fatal(err)
		}
		if err := est.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		o := New(cat, cost.New(cs), est)
		var q *query.Query // the first with a predicate per two tables, so estimates filter
		for _, g := range workload.GenWorkload(cat, workload.Options{Seed: 3, Count: 20, MinJoins: c.tables - 1, MaxJoins: c.tables - 1}) {
			if q == nil && len(g.Refs) == c.tables && 2*len(g.Preds) >= c.tables {
				q = g
			}
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := o.OptimizeCtx(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s %d-way: OptimizeCtx allocates %.0f objects, ceiling %.0f", c.est, c.tables, got, c.max)
		}
		t.Logf("%s %d-way: %.0f allocations (%d preds)", c.est, c.tables, got, len(q.Preds))
	}
}
