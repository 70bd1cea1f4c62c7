package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lqo/internal/adapt"
	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/stats"
)

// BenchmarkServeHit is the cached request end to end — statement lookup
// (adhoc), parse, key and admission (new-text: every request a new
// spelling of a cached query) or bind (prepared; prepared-wide rotates
// more bindings than the entry keeps harvest records of, so each request
// rebinds the template's join graph and harvests through its keys), then
// plan checkout, execution, feedback harvest, drift check — on one
// warmed server, so per-request set-up creeping back shows in ns/op and
// allocs/op without the repo benchmark's ten-second run. Its miss cell is the cold request
// beside them: a literal never seen before every request, so parse,
// planning through the feedback overlay, execution and harvest all run;
// miss-observed adds the adaptation loop's observer, the last cell because
// it stays installed:
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
	// cacheSize admissions, so none is ever a statement hit.
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
	spelled, fresh := 0, 0 // across b.N rounds: a round must not repeat the last's texts
	run := map[string]func(i int) (*Result, error){
		"miss": func(int) (*Result, error) {
			fresh++
			return s.Query(ctx, "bench", missSQL(fresh))
		},
		"adhoc": func(i int) (*Result, error) { return s.Query(ctx, "bench", sqls[i%len(sqls)]) },
		"new-text": func(int) (*Result, error) {
			spelled++
			return s.Query(ctx, "bench", spellings[spelled%len(spellings)])
		},
		"prepared": func(i int) (*Result, error) { return s.Exec(ctx, "bench", stmt, hitBindings[i%len(hitBindings)]) },
		"prepared-wide": func(i int) (*Result, error) {
			return s.Exec(ctx, "bench", stmt, wideBindings[i%len(wideBindings)])
		},
	}
	run["miss-observed"] = run["miss"]
	for _, name := range []string{"adhoc", "new-text", "prepared", "prepared-wide", "miss", "miss-observed"} {
		b.Run(name, func(b *testing.B) {
			if name == "miss-observed" {
				observeWithLoop(s)
			}
			for i := 0; i < len(wideBindings); i++ { // plan, then memoize and fill the pool
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
				if res.Cached == strings.HasPrefix(name, "miss") {
					b.Fatalf("timed request: cached %v", res.Cached)
				}
			}
			b.StopTimer()
			if name == "new-text" && s.Stats().StmtHits != stmtHits {
				b.Fatal("a new spelling was a statement hit")
			}
		})
	}
}

// missSQL is the k-th never-seen text of the miss cell: a 3-way join
// whose literal no other k shares.
func missSQL(k int) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM posts, users, comments WHERE posts.owner_user_id = users.id AND comments.post_id = posts.id AND posts.score > %d;", -k)
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// hitBindings are the prepared fixture's rotating bindings.
var hitBindings = []int{5, 20, 1, 50}

// wideBindings rotate one binding more than an entry holds records, so
// no request finds its binding's record.
var wideBindings = func() []int {
	b := make([]int, maxRecords+1)
	for i := range b {
		b[i] = 3 * i
	}
	return b
}()

// newHitFixture is BenchmarkServeHit's server, planning through
// plan.DefaultPipeline(shards), and its prepared 3-way statement. The
// q-error gate is off: every request after the first of a statement must
// be a hit.
func newHitFixture(tb testing.TB, shards int) (*Server, *Stmt) {
	tb.Helper()
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 17}); err != nil {
		tb.Fatal(err)
	}
	o := opt.New(cat, cost.New(cs), hist)
	o.Passes = plan.DefaultPipeline(shards)
	s := New(cat, o, exec.New(cat), Config{InvalidateQError: -1})
	stmt, err := s.Prepare("SELECT COUNT(*) FROM posts, users, comments WHERE posts.owner_user_id = users.id AND comments.post_id = posts.id AND posts.score > ?;")
	if err != nil {
		tb.Fatal(err)
	}
	return s, stmt
}

// TestPreparedHitAllocations pins what a warm prepared hit allocates on
// BenchmarkServeHit's fixture: the binding's query and its own Preds, the
// executor's run (its record rides in the Result), the reply and
// admission's release — no plan copy, no predicate slab, no join graph,
// no feedback key, sharded or not. Its
// binding's harvest record is found without allocating at any number
// of placeholders: the wide statement binds seven.
func TestPreparedHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	const wideSQL = "SELECT COUNT(*) FROM posts, users, comments WHERE posts.owner_user_id = users.id AND comments.post_id = posts.id " +
		"AND posts.score > ? AND posts.views >= ? AND posts.id > ? AND users.reputation >= ? AND comments.score BETWEEN ? AND ? AND comments.id >= ?;"
	for _, c := range []struct {
		shards int
		wide   bool
		max    float64
	}{{0, false, 5}, {0, true, 5}, {2, false, 61}} {
		s, stmt := newHitFixture(t, c.shards)
		var bindings [][]any
		for _, b := range hitBindings {
			bindings = append(bindings, []any{b})
		}
		if c.wide {
			var err error
			if stmt, err = s.Prepare(wideSQL); err != nil {
				t.Fatal(err)
			}
			for k := range bindings {
				bindings[k] = []any{hitBindings[k], 0, k, 0, 0, 10, 0}
			}
		}
		i := 0
		hit := func() {
			res, err := s.Exec(context.Background(), "a", stmt, bindings[i%len(bindings)]...)
			if err != nil {
				t.Fatal(err)
			}
			if i++; i > 1 && !res.Cached {
				t.Fatalf("shards=%d wide=%v: request %d missed the plan cache", c.shards, c.wide, i)
			}
		}
		for i < 8 { // plan, then fill the pool, the feedback store and the records
			hit()
		}
		got := testing.AllocsPerRun(100, hit)
		if got > c.max {
			t.Errorf("shards=%d wide=%v: a prepared hit allocates %.1f objects, ceiling %.0f", c.shards, c.wide, got, c.max)
		}
		t.Logf("shards=%d wide=%v: %.1f allocations per prepared hit", c.shards, c.wide, got)
	}
}

// TestAdhocHitAllocations pins what a warm ad-hoc hit allocates on
// BenchmarkServeHit's fixture, statement-cache hit included: the cached
// plan runs as it is stored, so only the executor's Result (the record
// in it), the reply and what admission holds per request remain.
func TestAdhocHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	s, _ := newHitFixture(t, 0)
	sql := "SELECT COUNT(*) FROM posts, users, comments WHERE posts.owner_user_id = users.id AND comments.post_id = posts.id AND posts.score > 5;"
	i := 0
	hit := func() {
		res, err := s.Query(context.Background(), "a", sql)
		if err != nil {
			t.Fatal(err)
		}
		if i++; i > 1 && !res.Cached {
			t.Fatalf("request %d missed the plan cache", i)
		}
	}
	for i < 8 { // plan, memoize the harvest, fill the pool
		hit()
	}
	got := testing.AllocsPerRun(100, hit)
	if got > 3 {
		t.Errorf("an ad-hoc hit allocates %.1f objects, ceiling 3", got)
	}
	t.Logf("%.1f allocations per ad-hoc hit", got)
}

// TestColdMissAllocations pins what a never-seen ad-hoc text allocates
// on BenchmarkServeHit's fixture, its miss cell's request: the parse and
// its one join graph, planning, execution, the plan-cache entry and the
// feedback keys new to the store.
func TestColdMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	s, _ := newHitFixture(t, 0)
	got := coldMissAllocs(t, s)
	if got > 60 {
		t.Errorf("a cold miss allocates %.1f objects, ceiling 60", got)
	}
	t.Logf("%.1f allocations per cold miss", got)
}

// TestObservedMissAllocations is TestColdMissAllocations with the
// adaptation loop observing, the miss-observed cell's request: the loop
// reads the request's join graph, and its collector builds the run's new
// labels in one slab.
func TestObservedMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	s, _ := newHitFixture(t, 0)
	observeWithLoop(s)
	got := coldMissAllocs(t, s)
	if got > 50 {
		t.Errorf("an observed cold miss allocates %.1f objects, ceiling 50", got)
	}
	t.Logf("%.1f allocations per observed cold miss", got)
}

// coldMissAllocs returns the mean allocations of s's never-seen texts
// once eight of them have filled the pool and the feedback store.
func coldMissAllocs(t *testing.T, s *Server) float64 {
	k := 0
	miss := func() {
		k++
		res, err := s.Query(context.Background(), "a", missSQL(k))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatalf("request %d hit the plan cache", k)
		}
	}
	for k < 8 {
		miss()
	}
	return testing.AllocsPerRun(100, miss)
}

// observeWithLoop installs an adaptation loop as s's observer; nothing
// ticks it, so only its observer path runs.
func observeWithLoop(s *Server) {
	s.SetObserver(adapt.NewLoop(adapt.NewSwappable(s.opt.Est), s, nil, adapt.Config{}))
}
