package serve

import (
	"context"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/stats"
)

// TestServerPoolLifetime pins the serving-layer pool contract: the server
// keeps the executor's one lifetime BatchPool, cached-plan steady-state
// traffic recycles its buffers without contract violations, and every
// execution drains the pool back to zero outstanding buffers. Runs the
// debug pool so double puts and use-after-put would surface as failures.
func TestServerPoolLifetime(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	ex := exec.New(cat)
	pool := exec.NewDebugBatchPool()
	ex.SetPool(pool) // replaces the plain pool exec.New installed
	s := New(cat, opt.New(cat, cost.New(cs), hist), ex, Config{})

	sqls := []string{
		"SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 5;",
		"SELECT COUNT(*) FROM posts p, users u WHERE p.owner_user_id = u.id AND p.views > 1000;",
	}
	base := make([]int64, len(sqls))
	for round := 0; round < 4; round++ {
		for i, sql := range sqls {
			res, err := s.Query(context.Background(), "tenant", sql)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if round == 0 {
				base[i] = res.Count
			} else {
				if !res.Cached {
					t.Fatalf("round %d: cached plan missed the cache", round)
				}
				if res.Count != base[i] {
					t.Fatalf("round %d: count drifted from %d to %d on pooled re-execution", round, base[i], res.Count)
				}
			}
			if n := pool.InUse(); n != 0 {
				t.Fatalf("round %d: %d pooled buffers outstanding after execution", round, n)
			}
		}
	}
	if mis := pool.Misuse(); len(mis) != 0 {
		t.Fatalf("pool contract violations under serving traffic: %v", mis)
	}
}
