package serve

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// runLog is an observer that keeps every run's record by binding.
type runLog struct {
	mu    sync.Mutex
	cards map[string][][]float64 // q.Key() -> one record per run
}

func (l *runLog) ObserveRun(g *query.JoinGraph, _ *plan.Node, cards []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := g.Query().Key()
	l.cards[k] = append(l.cards[k], cards)
}

// TestSharedPlanConcurrentBindings runs one cached generic plan from many
// goroutines at once, each with its own binding, through one executor and
// an installed observer; under -race it is the
// check that no run writes to the shared plan. Every answer must equal
// ReferenceRun's on a private copy of the plan bound to the same values:
// Count, Value bits, WorkUnits and the Cards record. The debug pool must
// end with nothing outstanding.
func TestSharedPlanConcurrentBindings(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, shards := range []int{0, 2} {
		ex := exec.New(cat)
		pool := exec.NewDebugBatchPool()
		ex.SetPool(pool)
		o := opt.New(cat, cost.New(cs), hist)
		o.Passes = plan.DefaultPipeline(shards)
		s := New(cat, o, ex, Config{InvalidateQError: -1})
		log := &runLog{cards: map[string][][]float64{}}
		s.SetObserver(log)
		stmt, err := s.Prepare("SELECT AVG(posts.views) FROM posts, users, comments WHERE posts.owner_user_id = users.id AND comments.post_id = posts.id AND posts.score > ? AND users.reputation > ?;")
		if err != nil {
			t.Fatal(err)
		}
		args := func(g int) []any { return []any{g - 1, 10 * g} }
		if _, err := s.Exec(ctx, "a", stmt, args(1)...); err != nil {
			t.Fatal(err)
		}
		shared, _, _ := s.cache.checkout(stmt.e.Load().key)

		const goroutines, runs = 8, 4
		got := make([][]*Result, goroutines)
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range runs {
					res, err := s.Exec(ctx, fmt.Sprint("t", g), stmt, args(g)...)
					if err != nil {
						t.Error(err)
						return
					}
					got[g] = append(got[g], res)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if p, _, _ := s.cache.checkout(stmt.e.Load().key); p != shared {
			t.Fatalf("shards=%d: the statement was planned again", shards)
		}
		if shards >= 2 {
			requireShardedCache(t, s)
		}

		ref := exec.New(cat)
		for g := range goroutines {
			q, err := stmt.e.Load().st.Bind(args(g)...)
			if err != nil {
				t.Fatal(err)
			}
			private := shared.Clone()
			private.Walk(func(n *plan.Node) {
				if n.Generic() {
					n.Preds = n.BindPreds(nil, q)
				}
			})
			want, err := ref.ReferenceRun(ctx, q, private)
			if err != nil {
				t.Fatal(err)
			}
			for r, res := range got[g] {
				if !res.Cached || res.Count != want.Count || math.Float64bits(res.Value) != math.Float64bits(want.Value) || res.Latency != want.Stats.WorkUnits {
					t.Fatalf("shards=%d binding %d run %d: %+v, reference %d/%v/%v", shards, g, r, res, want.Count, want.Value, want.Stats.WorkUnits)
				}
			}
			records := log.cards[q.Key()]
			if len(records) < runs {
				t.Fatalf("shards=%d binding %d: observer saw %d runs, want at least %d", shards, g, len(records), runs)
			}
			for _, cards := range records {
				if !slices.Equal(cards, want.Cards) {
					t.Fatalf("shards=%d binding %d: Cards %v, reference %v", shards, g, cards, want.Cards)
				}
			}
		}
		if n := pool.InUse(); n != 0 {
			t.Fatalf("shards=%d: %d pooled buffers outstanding", shards, n)
		}
		if mis := pool.Misuse(); len(mis) != 0 {
			t.Fatalf("shards=%d: pool contract violations: %v", shards, mis)
		}
	}
}
