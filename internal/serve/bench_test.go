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

// BenchmarkServeHit is the cached request end to end — parse (ad-hoc) or
// bind (prepared), key, plan checkout, execution, feedback harvest, drift
// check — on one warmed server, so per-request set-up creeping back shows
// in ns/op and allocs/op without the repo benchmark's ten-second run:
//
//	go test ./internal/serve -run '^$' -bench ServeHit -benchmem
func BenchmarkServeHit(b *testing.B) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 17}); err != nil {
		b.Fatal(err)
	}
	// The q-error gate stays off: every timed request must be a hit.
	s := New(cat, opt.New(cat, cost.New(cs), hist), exec.New(cat), Config{InvalidateQError: -1})
	ctx := context.Background()
	const template = "SELECT COUNT(*) FROM posts, users, comments WHERE posts.owner_user_id = users.id AND comments.post_id = posts.id AND posts.score > ?;"
	stmt, err := s.Prepare(template)
	if err != nil {
		b.Fatal(err)
	}
	sqls := []string{
		"SELECT COUNT(*) FROM posts, users, comments WHERE posts.owner_user_id = users.id AND comments.post_id = posts.id AND posts.score > 5;",
		"SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.views > 100;",
		"SELECT COUNT(*) FROM badges, users WHERE badges.user_id = users.id AND users.reputation > 10;",
		"SELECT COUNT(*) FROM votes WHERE votes.vote_type = 2;",
	}
	bindings := []int{5, 20, 1, 50}
	run := map[string]func(i int) (*Result, error){
		"adhoc":    func(i int) (*Result, error) { return s.Query(ctx, "bench", sqls[i%len(sqls)]) },
		"prepared": func(i int) (*Result, error) { return s.Exec(ctx, "bench", stmt, bindings[i%len(bindings)]) },
	}
	for _, name := range []string{"adhoc", "prepared"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < 8; i++ { // plan, then memoize and fill the pool
				if _, err := run[name](i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := run[name](i)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Cached {
					b.Fatal("timed request missed the plan cache")
				}
			}
		})
	}
}
