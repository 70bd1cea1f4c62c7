package serve

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lqo/internal/adapt"
	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
)

// TestStatementCacheAdmitsOnPlanHit: a text is kept parsed only once a
// request for it reuses a cached plan, so the first request misses and
// stores nothing, the second misses and stores, the third is served from
// the cache with the same reply.
func TestStatementCacheAdmitsOnPlanHit(t *testing.T) {
	s, _ := newFixture(t, Config{})
	sql := "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 5;"
	var counts []int64
	for i, want := range []struct {
		hits, misses int64
		stored       bool
	}{{0, 1, false}, {0, 2, true}, {1, 2, true}, {2, 2, true}} {
		res, err := s.Query(context.Background(), "a", sql)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Count)
		st := s.Stats()
		_, stored := s.stmts.entries[sql]
		if st.StmtHits != want.hits || st.StmtMisses != want.misses || stored != want.stored {
			t.Fatalf("request %d: hits %d misses %d stored %v; want %+v", i, st.StmtHits, st.StmtMisses, stored, want)
		}
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("replies diverged: %v", counts)
		}
	}
}

// TestStatementCacheNeverStoresErrors: failing texts are parsed, and fail,
// every time; a placeholder fails with Parse's error.
func TestStatementCacheNeverStoresErrors(t *testing.T) {
	s, cat := newFixture(t, Config{})
	for _, sql := range []string{
		"SELECT COUNT(*) FROM nosuch;",
		"SELECT COUNT(*) FROM posts WHERE posts.score > ?;",
	} {
		_, want := sqlx.Parse(sql, cat)
		for i := 0; i < 3; i++ {
			_, err := s.Query(context.Background(), "a", sql)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("%s: error %v, Parse's %v", sql, err, want)
			}
		}
	}
	if n := len(s.stmts.entries); n != 0 {
		t.Fatalf("%d failing texts stored", n)
	}
}

// TestStatementCacheDropsAllOnOverflow: admitting a text past cacheSize
// empties the cache first. The texts are cacheSize+1 spellings of three
// queries, trailing spaces apart, so they share three plans.
func TestStatementCacheDropsAllOnOverflow(t *testing.T) {
	s, _ := newFixture(t, Config{})
	queries := []string{
		"SELECT COUNT(*) FROM users WHERE users.reputation > 10;",
		"SELECT COUNT(*) FROM posts WHERE posts.score > 5;",
		"SELECT COUNT(*) FROM badges WHERE badges.class = 1;",
	}
	sqls := make([]string, cacheSize+1)
	for i := range sqls {
		sqls[i] = queries[i%len(queries)] + strings.Repeat(" ", i/len(queries))
	}
	for i, sql := range sqls {
		for rep := 0; rep < 2; rep++ {
			if _, err := s.Query(context.Background(), "a", sql); err != nil {
				t.Fatal(err)
			}
		}
		if want := i%cacheSize + 1; len(s.stmts.entries) != want {
			t.Fatalf("after admitting %d texts: %d stored, want %d", i+1, len(s.stmts.entries), want)
		}
	}
	if _, ok := s.stmts.entries[sqls[cacheSize]]; !ok {
		t.Fatal("the text admitted on overflow is not stored")
	}
}

// TestQueriesAreReadOnly pins the contract that lets one parsed query
// serve every request for its text: nothing on the serving path — miss,
// plan hit, statement hit, replan after q-error invalidation, prepared
// rebind, sharded plans, an adaptation loop observing — writes to it.
func TestQueriesAreReadOnly(t *testing.T) {
	sqls := []string{
		"SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 5 AND users.reputation >= 10;",
		"SELECT SUM(p.score) FROM posts p, users u, comments c WHERE p.owner_user_id = u.id AND c.post_id = p.id AND p.views > 100 AND c.score BETWEEN 0 AND 5;",
		"SELECT COUNT(*) FROM badges, users WHERE badges.user_id = users.id AND badges.class = 1 AND users.reputation > 10;",
	}
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	servers := map[string]func() (*Server, func()){
		"plain": func() (*Server, func()) {
			return New(cat, opt.New(cat, cost.New(cs), hist), exec.New(cat), Config{}), func() {}
		},
		"replan": func() (*Server, func()) { // every hit invalidates
			return New(cat, opt.New(cat, cost.New(cs), constEstimator{}), exec.New(cat), Config{InvalidateQError: 2}), func() {}
		},
		"shards=2": func() (*Server, func()) {
			o := opt.New(cat, cost.New(cs), hist)
			o.Passes = plan.DefaultPipeline(2)
			return New(cat, o, exec.New(cat), Config{}), func() {}
		},
		"adapt": func() (*Server, func()) {
			sw := adapt.NewSwappable(hist)
			o := opt.New(cat, cost.New(cs), sw)
			ex := exec.New(cat)
			s := New(cat, o, ex, Config{})
			loop := adapt.NewLoop(sw, s, adapt.NewGate(o, ex, adapt.GateConfig{}), adapt.Config{Seed: 17, Cat: cat})
			s.SetObserver(loop)
			return s, func() {
				if _, err := loop.Tick(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, build := range servers {
		t.Run(name, func(t *testing.T) {
			s, tick := build()
			ctx := context.Background()
			for round := 0; round < 4; round++ {
				for _, sql := range sqls {
					// Miss and plan hit, through the path Query takes.
					q, err := sqlx.Parse(sql, cat)
					if err != nil {
						t.Fatal(err)
					}
					before := q.Clone()
					if _, err := s.run(ctx, cat, "a", q, q.Key(), nil, nil); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(q, before) {
						t.Fatalf("round %d: %s: run mutated the query", round, sql)
					}
					tick()
					// Statement hits, once the text is admitted.
					var cached, snapshot *query.Query
					if e, ok := s.stmts.entries[sql]; ok {
						cached, snapshot = e.st.Query(), e.st.Query().Clone()
					}
					if _, err := s.Query(ctx, "a", sql); err != nil {
						t.Fatal(err)
					}
					if cached != nil && !reflect.DeepEqual(cached, snapshot) {
						t.Fatalf("round %d: %s: a statement hit mutated the cached query", round, sql)
					}
					tick()
				}
			}
			if s.Stats().StmtHits == 0 {
				t.Fatal("no request was a statement hit")
			}
			stmt, err := s.Prepare("SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > ? AND users.reputation >= ?;")
			if err != nil {
				t.Fatal(err)
			}
			tmpl := stmt.e.Load().st.Query()
			before := tmpl.Clone()
			for _, b := range [][]any{{5, 0}, {20, 10}, {1, 100}, {5, 0}} {
				if _, err := s.Exec(ctx, "a", stmt, b...); err != nil {
					t.Fatal(err)
				}
				tick()
			}
			if !reflect.DeepEqual(tmpl, before) {
				t.Fatal("prepared rebinding mutated the template")
			}
			if name == "shards=2" {
				requireShardedCache(t, s)
			}
		})
	}
}

// TestStatementCacheConcurrentRequests: 16 goroutines send the same texts
// (run with -race): misses, admissions and statement hits race, every
// reply is the serial answer and the pool drains.
func TestStatementCacheConcurrentRequests(t *testing.T) {
	serial, _ := newFixture(t, Config{})
	var sqls []string
	for i := 0; i < 4; i++ {
		sqls = append(sqls, fmt.Sprintf(
			"SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > %d;", i))
	}
	want := make(map[string]int64)
	for _, sql := range sqls {
		res, err := serial.Query(context.Background(), "a", sql)
		if err != nil {
			t.Fatal(err)
		}
		want[sql] = res.Count
	}

	s, cat := newFixture(t, Config{})
	pool := exec.NewDebugBatchPool()
	s.ex = exec.New(cat)
	s.ex.SetPool(pool)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sql := sqls[(g+i)%len(sqls)]
				res, err := s.Query(context.Background(), "a", sql)
				if err != nil {
					errc <- err
					return
				}
				if res.Count != want[sql] {
					errc <- fmt.Errorf("%s: count %d, serial %d", sql, res.Count, want[sql])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if n := pool.InUse(); n != 0 {
		t.Fatalf("%d pooled buffers outstanding", n)
	}
	if mis := pool.Misuse(); len(mis) != 0 {
		t.Fatalf("pool contract violations: %v", mis)
	}
	if st := s.Stats(); st.StmtHits == 0 || st.StmtHits+st.StmtMisses != 16*20 {
		t.Fatalf("stats %+v after %d requests", st, 16*20)
	}
}
