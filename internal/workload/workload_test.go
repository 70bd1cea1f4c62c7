package workload

import (
	"math/rand"
	"testing"

	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/query"
)

func TestGenWorkloadValidAndDeterministic(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 2, Scale: 0.05})
	qs1 := GenWorkload(cat, Options{Seed: 2, Count: 50, MaxJoins: 3, MaxPreds: 3})
	qs2 := GenWorkload(cat, Options{Seed: 2, Count: 50, MaxJoins: 3, MaxPreds: 3})
	if len(qs1) != 50 {
		t.Fatalf("count = %d", len(qs1))
	}
	for i, q := range qs1 {
		if err := q.Validate(cat); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		if len(q.Preds) == 0 {
			t.Fatalf("query %d has no predicates", i)
		}
		if q.Key() != qs2[i].Key() {
			t.Fatalf("generation not deterministic at %d", i)
		}
		// Join count = tables - 1 (connected walks).
		if len(q.Joins) != len(q.Refs)-1 {
			t.Fatalf("query %d: %d joins for %d tables", i, len(q.Joins), len(q.Refs))
		}
	}
}

func TestGenWorkloadRespectsJoinBounds(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 3, Scale: 0.05})
	qs := GenWorkload(cat, Options{Seed: 3, Count: 40, MinJoins: 2, MaxJoins: 3, MaxPreds: 2})
	for _, q := range qs {
		if len(q.Joins) < 2 || len(q.Joins) > 3 {
			t.Fatalf("join count %d outside [2,3]: %s", len(q.Joins), q.SQL())
		}
	}
}

func TestGenWorkloadQueriesAreConnected(t *testing.T) {
	cat := datagen.JOBLite(datagen.Config{Seed: 5, Scale: 0.05})
	qs := GenWorkload(cat, Options{Seed: 5, Count: 30, MaxJoins: 4, MaxPreds: 2})
	for _, q := range qs {
		g := query.NewJoinGraph(q)
		if !g.Connected(query.SetOf(q.Aliases())) {
			t.Fatalf("disconnected query: %s", q.SQL())
		}
	}
}

func TestGenLabeled(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.05})
	cache := exec.NewCardCache(exec.New(cat))
	labeled, err := GenLabeled(cat, cache, Options{Seed: 7, Count: 30, MaxJoins: 3, MaxPreds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(labeled) != 30 {
		t.Fatalf("labeled = %d", len(labeled))
	}
	for _, l := range labeled {
		if l.Card < 0 {
			t.Fatalf("negative card for %s", l.Q.SQL())
		}
		// Cross-check one in three against a fresh execution.
		truth, err := cache.TrueCard(l.Q)
		if err != nil {
			t.Fatal(err)
		}
		if truth != l.Card {
			t.Fatalf("label mismatch: %v vs %v", l.Card, truth)
		}
	}
}

func TestGenDeepJoinQuery(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 11, Scale: 0.05})
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 6, 10} {
		q, err := GenDeepJoinQuery(cat, n, rng, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Refs) != n {
			t.Fatalf("refs = %d, want %d", len(q.Refs), n)
		}
		if len(q.Joins) != n-1 {
			t.Fatalf("joins = %d, want %d", len(q.Joins), n-1)
		}
		if err := q.Validate(cat); err != nil {
			t.Fatalf("deep query invalid: %v", err)
		}
		// Aliases must be unique even when tables repeat.
		seen := map[string]bool{}
		for _, r := range q.Refs {
			if seen[r.Alias] {
				t.Fatalf("duplicate alias %s", r.Alias)
			}
			seen[r.Alias] = true
		}
		g := query.NewJoinGraph(q)
		if !g.Connected(query.SetOf(q.Aliases())) {
			t.Fatal("deep join graph disconnected")
		}
	}
}

func TestGenDeepJoinNoEdgesErrors(t *testing.T) {
	// A catalog with tables but no FK structure.
	empty := data.NewCatalog()
	c := &data.Column{Name: "v", Kind: data.Int}
	c.AppendInt(1)
	empty.Add(data.NewTable("lonely", c))
	rng := rand.New(rand.NewSource(1))
	if _, err := GenDeepJoinQuery(empty, 3, rng, 0.5); err == nil {
		t.Fatal("expected error without schema edges")
	}
}
