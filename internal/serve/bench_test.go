package serve

import (
	"context"
	"strings"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/stats"
)

// BenchmarkServeHit is the cached request end to end — statement lookup
// (adhoc), parse, key and admission (new-text: every request a new
// spelling of a cached query) or bind (prepared), then plan checkout,
// execution, feedback harvest, drift check — on one warmed server, so
// per-request set-up creeping back shows in ns/op and allocs/op without
// the repo benchmark's ten-second run:
//
//	go test ./internal/serve -run '^$' -bench ServeHit -benchmem
func BenchmarkServeHit(b *testing.B) {
	s, stmt := newHitFixture(b, 0)
	ctx := context.Background()
	sqls := []string{
		"SELECT COUNT(*) FROM posts, users, comments WHERE posts.owner_user_id = users.id AND comments.post_id = posts.id AND posts.score > 5;",
		"SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.views > 100;",
		"SELECT COUNT(*) FROM badges, users WHERE badges.user_id = users.id AND users.reputation > 10;",
		"SELECT COUNT(*) FROM votes WHERE votes.vote_type = 2;",
	}
	// Whitespace variants: spelling k of text k%4 doubles its spaces at
	// the set bits of j = k/4 and appends what bits its spaces cannot hold
	// as trailing spaces; spelling 0 is the adhoc text. 4096 of them
	// outlast the statement cache, which drops all its entries every
	// CacheSize admissions, so none is ever a statement hit.
	spellings := make([]string, 4096)
	for k := range spellings {
		var b strings.Builder
		j := k / len(sqls)
		for _, r := range sqls[k%len(sqls)] {
			b.WriteRune(r)
			if r == ' ' {
				if j&1 == 1 {
					b.WriteRune(' ')
				}
				j >>= 1
			}
		}
		b.WriteString(strings.Repeat(" ", j))
		spellings[k] = b.String()
	}
	spelled := 0 // across b.N rounds: a round must not repeat the last's texts
	run := map[string]func(i int) (*Result, error){
		"adhoc": func(i int) (*Result, error) { return s.Query(ctx, "bench", sqls[i%len(sqls)]) },
		"new-text": func(int) (*Result, error) {
			spelled++
			return s.Query(ctx, "bench", spellings[spelled%len(spellings)])
		},
		"prepared": func(i int) (*Result, error) { return s.Exec(ctx, "bench", stmt, hitBindings[i%len(hitBindings)]) },
	}
	for _, name := range []string{"adhoc", "new-text", "prepared"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < 8; i++ { // plan, then memoize and fill the pool
				if _, err := run[name](i); err != nil {
					b.Fatal(err)
				}
			}
			stmtHits := s.Stats().StmtHits
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
			b.StopTimer()
			if name == "new-text" && s.Stats().StmtHits != stmtHits {
				b.Fatal("a new spelling was a statement hit")
			}
		})
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// hitBindings are the prepared fixture's rotating bindings.
var hitBindings = []int{5, 20, 1, 50}

// newHitFixture is BenchmarkServeHit's server, planning with the given
// shard fan-out, and its prepared 3-way statement. The q-error gate is
// off: every request after the first of a statement must be a hit.
func newHitFixture(tb testing.TB, shards int) (*Server, *Stmt) {
	tb.Helper()
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 17}); err != nil {
		tb.Fatal(err)
	}
	o := opt.New(cat, cost.New(cs), hist)
	o.Shards = shards
	s := New(cat, o, exec.New(cat), Config{InvalidateQError: -1})
	stmt, err := s.Prepare("SELECT COUNT(*) FROM posts, users, comments WHERE posts.owner_user_id = users.id AND comments.post_id = posts.id AND posts.score > ?;")
	if err != nil {
		tb.Fatal(err)
	}
	return s, stmt
}

// TestPreparedHitAllocations pins what a warm prepared hit allocates on
// BenchmarkServeHit's fixture: the binding's own Preds, its rebound join
// graph, one predicate slab for the generic plan's leaves, the plan
// checkout, the executor's run and the reply — no graph built, no
// feedback key string, and under Shards=2 no cache key built either.
func TestPreparedHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	for _, c := range []struct {
		shards int
		max    float64
	}{{0, 12}, {2, 75}} {
		s, stmt := newHitFixture(t, c.shards)
		i := 0
		hit := func() {
			res, err := s.Exec(context.Background(), "a", stmt, hitBindings[i%len(hitBindings)])
			if err != nil {
				t.Fatal(err)
			}
			if i++; i > 1 && !res.Cached {
				t.Fatalf("shards=%d: request %d missed the plan cache", c.shards, i)
			}
		}
		for i < 8 { // plan, then fill the pool and the feedback store
			hit()
		}
		got := testing.AllocsPerRun(100, hit)
		if got > c.max {
			t.Errorf("shards=%d: a prepared hit allocates %.1f objects, ceiling %.0f", c.shards, got, c.max)
		}
		t.Logf("shards=%d: %.1f allocations per prepared hit", c.shards, got)
	}
}
