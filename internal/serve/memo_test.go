// Tests for the hit path's harvest records: whatever a hit writes into the
// feedback store through its binding's recorded slots must be what the
// unmemoized harvest — every node's sub-query key and truth, in plan
// pre-order, per request — would have written.
package serve

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/feedback"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
)

// mirrorStore is the reference feedback store: an ExecObserver (so it sees
// exactly the run record the server harvested) that stores every plan
// node's truth under its sub-query key, in pre-order, under the store's
// admission rule. at keeps where each harvested key was last seen.
type mirrorStore struct {
	mu    sync.Mutex
	store map[string]float64
	at    map[string]subquery
}

// subquery names a sub-query by its join graph and mask.
type subquery struct {
	g    *query.JoinGraph
	mask uint64
}

func newMirror() *mirrorStore {
	m := &mirrorStore{}
	m.reset()
	return m
}

func (m *mirrorStore) ObserveRun(g *query.JoinGraph, p *plan.Node, cards []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := 0
	p.WalkLogicalMasks(g, func(_ *plan.Node, mask uint64) {
		k := g.Key(mask)
		if _, ok := m.store[k]; ok || len(m.store) < feedback.Cap {
			m.store[k], m.at[k] = cards[i], subquery{g, mask}
		}
		i++
	})
}

func (m *mirrorStore) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store = map[string]float64{}
	m.at = map[string]subquery{}
}

// fillerGraph is the join graph of a 13-way cross product over a table no
// catalog holds: its 8191 sub-query keys can fill a store, and no request
// renders one of them.
func fillerGraph() *query.JoinGraph {
	q := &query.Query{}
	for i := range 13 {
		q.Refs = append(q.Refs, query.TableRef{Alias: fmt.Sprint("f", i), Table: "filler"})
	}
	return query.NewJoinGraph(q)
}

// fillFeedback pushes filler keys into s's feedback store until free
// slots remain, so the keys a test harvests next see a store of capacity
// free, and returns them. free ≤ 0 adds none.
func fillFeedback(s *Server, free int) []string {
	if free <= 0 {
		return nil
	}
	g := fillerGraph()
	fill := map[string]float64{}
	var keys []string
	for m := uint64(1); len(keys) < feedback.Cap-free-s.FeedbackLen(); m++ {
		keys = append(keys, g.Key(m))
		fill[g.Key(m)] = 1
	}
	s.fb.Push(g, fill)
	return keys
}

// fill is fillFeedback that also mirrors the filler keys.
func (m *mirrorStore) fill(s *Server, free int) {
	keys := fillFeedback(s, free)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range keys {
		m.store[k] = 1
	}
}

// requireMirrored fails unless the server's feedback store holds exactly
// the mirror's keys and values, and the server's overlay answers each
// harvested key's truth through the graph path too: the store holds the
// key's hash.
func requireMirrored(t *testing.T, s *Server, m *mirrorStore, at string) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := s.FeedbackLen(); n != len(m.store) {
		t.Fatalf("%s: the feedback store holds %d keys, the mirror %d", at, n, len(m.store))
	}
	for k, want := range m.store {
		if got, ok := s.fb.Truth(k); !ok || got != want {
			t.Fatalf("%s: feedback store diverged from the unmemoized harvest: key %q holds %v (stored %v), mirror %v", at, k, got, ok, want)
		}
	}
	masks := map[*query.JoinGraph][]uint64{}
	for _, sq := range m.at {
		masks[sq.g] = append(masks[sq.g], sq.mask)
	}
	ov := s.opt.Est.(*feedback.Overlay)
	for g, ms := range masks {
		cards := make([]float64, 1<<len(g.Aliases))
		if err := ov.EstimateGraph(context.Background(), g, cards); err != nil {
			t.Fatal(err)
		}
		for _, mask := range ms {
			if want := metrics.ClampCard(m.store[g.Key(mask)]); cards[mask] != want {
				t.Fatalf("%s: the overlay's graph path answers %v for %q, its stored truth %v", at, cards[mask], g.Key(mask), want)
			}
		}
	}
}

// recordsOf returns copies of the harvest records on the cache entry of
// a canonical key (none before its first hit) and whether the entry
// exists at all.
func recordsOf(s *Server, key string) (recs []harvestRecord, cached bool) {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	el, ok := s.cache.entries[key]
	if !ok {
		return nil, false
	}
	if m := el.Value.(*cacheEntry).memo.Load(); m != nil {
		s.fb.Lock()
		recs = append(recs, m.recs...)
		s.fb.Unlock()
	}
	return recs, true
}

// hasMemo reports whether key's entry exists and holds a harvest record.
func hasMemo(s *Server, key string) bool {
	recs, _ := recordsOf(s, key)
	return len(recs) > 0
}

// requireOwnKeys fails unless every current record of a statement's
// binding on key's entry writes exactly that binding's keys: it records
// what a harvest through the bound query's graph records now, slot i
// being the store slot of the sub-query key of the plan's i-th logical
// pre-order position, -1 for a key the store does not hold. That harvest
// writes the truths the store holds, so it changes nothing unless the
// record is wrong. It returns how many records it checked.
func requireOwnKeys(t *testing.T, s *Server, key, at string) int {
	t.Helper()
	s.cache.mu.Lock()
	el, ok := s.cache.entries[key]
	s.cache.mu.Unlock()
	if !ok {
		return 0
	}
	ent := el.Value.(*cacheEntry)
	recs, _ := recordsOf(s, key)
	checked := 0
	for _, r := range recs {
		if r.st == nil {
			continue
		}
		args := make([]any, len(r.args))
		for i, v := range r.args {
			args[i] = v
		}
		q, err := r.st.Bind(args...)
		if err != nil {
			t.Fatal(err)
		}
		g := query.NewJoinGraph(q)
		var truths []float64
		ent.p.WalkLogicalMasks(g, func(_ *plan.Node, mask uint64) {
			c, _ := s.fb.Truth(g.Key(mask))
			truths = append(truths, c)
		})
		var now feedback.Record
		s.fb.Lock()
		current := s.fb.Current(&r.rec)
		if current {
			s.fb.Harvest(g, ent.p, truths, &now)
		}
		s.fb.Unlock()
		if !current {
			continue
		}
		if !reflect.DeepEqual(now, r.rec) {
			t.Fatalf("%s: binding %v records %v, a harvest through its graph %v", at, q.SQL(), r.rec, now)
		}
		checked++
	}
	return checked
}

func adhocKey(t *testing.T, s *Server, sql string) string {
	t.Helper()
	q, err := sqlx.Parse(sql, s.cat)
	if err != nil {
		t.Fatal(err)
	}
	return q.Key()
}

var memoSQL = []string{
	"SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 5;",
	"SELECT COUNT(*) FROM posts p, users u, comments c WHERE p.owner_user_id = u.id AND c.post_id = p.id AND p.views > 100;",
	"SELECT COUNT(*) FROM badges WHERE badges.class = 1;",
	// Shares the posts and users sub-queries' shape with the first, not
	// their keys.
	"SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 9;",
}

// TestHarvestMemoMatchesHarvestCards drives misses, first hits and memoized
// hits, with an ample and with a nearly full feedback store, and checks the
// store against the mirror, the unmemoized harvest, after every request. cap=n with n > 0 leaves n
// free slots (mirrorStore.fill).
func TestHarvestMemoMatchesHarvestCards(t *testing.T) {
	for _, cap := range []int{0, 7, 3} {
		t.Run(fmt.Sprintf("cap=%d", cap), func(t *testing.T) {
			s, _ := newFixture(t, Config{})
			m := newMirror()
			m.fill(s, cap)
			s.SetObserver(m)
			memoized := false
			for round := 0; round < 4; round++ {
				for i, sql := range memoSQL {
					res, err := s.Query(context.Background(), "a", sql)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("round %d sql %d", round, i)
					requireMirrored(t, s, m, at)
					// (The q-error gate may have evicted the entry just now.)
					recs, cached := recordsOf(s, adhocKey(t, s, sql))
					switch {
					case !res.Cached && len(recs) > 0:
						t.Fatalf("%s: the miss memoized; only a hit may pay for the memo", at)
					case res.Cached && cached && len(recs) != 1:
						t.Fatalf("%s: a hit left %d records, want the ad-hoc one", at, len(recs))
					}
					memoized = memoized || len(recs) > 0
				}
			}
			if !memoized {
				t.Fatal("no request ever went through a memo")
			}
			if cap > 0 && s.FeedbackLen() != feedback.Cap {
				t.Fatalf("FeedbackLen = %d, want the cap %d", s.FeedbackLen(), feedback.Cap)
			}
			// ResetFeedback empties the store under live memos: the next
			// hits must write every key again, not only changed ones.
			s.ResetFeedback()
			m.reset()
			m.fill(s, cap)
			filled := s.FeedbackLen()
			for i, sql := range memoSQL {
				if _, err := s.Query(context.Background(), "a", sql); err != nil {
					t.Fatal(err)
				}
				requireMirrored(t, s, m, fmt.Sprintf("after reset sql %d", i))
			}
			if s.FeedbackLen() == filled {
				t.Fatal("memoized hits did not rebuild the store after ResetFeedback")
			}
		})
	}
}

// TestHarvestMemoDiesWithItsPlan: a memo describes one plan's pre-order, so
// every way an entry's plan can be replaced or dropped must drop it too.
func TestHarvestMemoDiesWithItsPlan(t *testing.T) {
	// The q-error gate is off here (it has its own test below): only the
	// step under test may drop the entry.
	s, _ := newFixture(t, Config{InvalidateQError: -1})
	m := newMirror()
	s.SetObserver(m)
	sql := memoSQL[1]
	key := adhocKey(t, s, sql)
	hit := func(times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			if _, err := s.Query(context.Background(), "a", sql); err != nil {
				t.Fatal(err)
			}
			requireMirrored(t, s, m, "hit")
		}
	}
	hit(2)
	if !hasMemo(s, key) {
		t.Fatal("no memo after a hit")
	}

	// Put over the live key: same SQL, differently shaped plan, so the old
	// memo's positions would name the wrong sub-queries.
	q, err := sqlx.Parse(sql, s.cat)
	if err != nil {
		t.Fatal(err)
	}
	other, err := exec.CanonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(key, other)
	if hasMemo(s, key) {
		t.Fatal("memo survived Put over its key")
	}
	hit(2)
	if !hasMemo(s, key) {
		t.Fatal("replaced plan never memoized")
	}

	if s.FlushPlans() == 0 || hasMemo(s, key) {
		t.Fatal("memo survived FlushPlans")
	}
	hit(3)
}

// TestHarvestMemoDroppedOnDriftInvalidation: the q-error gate evicts the
// entry on the very hit that memoized it; the replan starts without one.
func TestHarvestMemoDroppedOnDriftInvalidation(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	s := New(cat, opt.New(cat, cost.New(cs), constEstimator{}), exec.New(cat), Config{InvalidateQError: 2})
	m := newMirror()
	s.SetObserver(m)
	sql := "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.views >= 0;"
	key := adhocKey(t, s, sql)
	for i, wantCached := range []bool{false, true, false, true, true} {
		res, err := s.Query(context.Background(), "a", sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached != wantCached {
			t.Fatalf("request %d: Cached = %v, want %v", i, res.Cached, wantCached)
		}
		requireMirrored(t, s, m, fmt.Sprintf("request %d", i))
		if i == 1 && (len(s.cache.entries) != 0 || hasMemo(s, key)) {
			t.Fatal("drifted entry (and its memo) not evicted")
		}
		if i == 2 && hasMemo(s, key) {
			t.Fatal("replanned entry born with a memo")
		}
	}
	if s.Stats().Cache.Invalidations != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

// TestHarvestMemoShardedPlansUseLogicalWalk: a sharded plan's Merge leaf
// is one pre-order position carrying the whole scan's cardinality; the
// store must learn the unsharded plan's truths, memoized or not.
func TestHarvestMemoShardedPlansUseLogicalWalk(t *testing.T) {
	plain, sharded := newShardFixture(t, 2)
	mp, ms := newMirror(), newMirror()
	plain.SetObserver(mp)
	sharded.SetObserver(ms)
	for round := 0; round < 3; round++ {
		for _, sql := range memoSQL[:2] {
			for _, sv := range []struct {
				s *Server
				m *mirrorStore
			}{{plain, mp}, {sharded, ms}} {
				if _, err := sv.s.Query(context.Background(), "a", sql); err != nil {
					t.Fatal(err)
				}
				requireMirrored(t, sv.s, sv.m, fmt.Sprintf("round %d", round))
			}
		}
	}
	if !hasMemo(sharded, adhocKey(t, sharded, memoSQL[0])) {
		t.Fatal("sharded ad-hoc entry never memoized")
	}
	requireShardedCache(t, sharded)
	// The logical walk is shard-blind: both servers learned the same truths.
	if !reflect.DeepEqual(mp.store, ms.store) {
		t.Fatalf("sharded feedback differs from unsharded:\n plain   %v\n sharded %v", mp.store, ms.store)
	}
}

// TestHarvestMemoPreparedBindingsBypass: a prepared statement's entry is
// keyed on its shape, and each binding has its own sub-query keys — no
// binding may write another's, so each binding bypasses the others'
// harvest records and writes through its own: a binding's record holds
// only that binding's keys (requireOwnKeys). The parameterless
// statement shares its entry with the ad-hoc spelling, each with a
// record of its own. A record's first hit writes through the rebound
// template graph and a reused key buffer, so the store is checked with
// an ample and a nearly full store (cap=n with n > 0 leaves n free slots,
// mirrorStore.fill), and across a ResetFeedback mid-stream.
func TestHarvestMemoPreparedBindingsBypass(t *testing.T) {
	for _, cap := range []int{0, 7, 3} {
		t.Run(fmt.Sprintf("cap=%d", cap), func(t *testing.T) {
			// No q-error gate: the generic plan's entry must live through
			// every binding for a wrongly shared memo to show.
			s, _ := newFixture(t, Config{InvalidateQError: -1})
			m := newMirror()
			m.fill(s, cap)
			s.SetObserver(m)
			stmt, err := s.Prepare("SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > ? AND users.reputation >= ?;")
			if err != nil {
				t.Fatal(err)
			}
			bindings := [][]any{{5, 0}, {20, 10}, {1, 100}, {50, 1}}
			for round := 0; round < 3; round++ {
				for i, b := range bindings {
					if round == 1 && i == 2 {
						s.ResetFeedback()
						m.reset()
						m.fill(s, cap)
					}
					res, err := s.Exec(context.Background(), "a", stmt, b...)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("round %d binding %d", round, i)
					requireMirrored(t, s, m, at+" (prepared)")
					adhoc, err := s.Query(context.Background(), "a", fmt.Sprintf(
						"SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > %d AND users.reputation >= %d;", b[0], b[1]))
					if err != nil {
						t.Fatal(err)
					}
					if res.Count != adhoc.Count {
						t.Fatalf("%s: prepared %d, ad-hoc %d", at, res.Count, adhoc.Count)
					}
					requireMirrored(t, s, m, at)
				}
			}
			key := stmt.e.Load().st.ShapeKey()
			if recs, cached := recordsOf(s, key); !cached || len(recs) != len(bindings) {
				t.Fatalf("prepared statement's entry: cached %v, %d records; want a live entry with one per binding", cached, len(recs))
			}
			if n := requireOwnKeys(t, s, key, "after 3 rounds"); n != len(bindings) {
				t.Fatalf("%d of %d bindings' records are current", n, len(bindings))
			}
			if cap > 0 && s.FeedbackLen() != feedback.Cap {
				t.Fatalf("FeedbackLen = %d, want the cap %d", s.FeedbackLen(), feedback.Cap)
			}

			bare := memoSQL[0]
			noParams, err := s.Prepare(bare)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := s.Query(context.Background(), "a", bare); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Exec(context.Background(), "a", noParams); err != nil {
					t.Fatal(err)
				}
				requireMirrored(t, s, m, "parameterless statement")
			}
			if recs, _ := recordsOf(s, adhocKey(t, s, bare)); len(recs) != 2 {
				t.Fatalf("the parameterless statement's entry holds %d records, want the ad-hoc and the statement's", len(recs))
			}
		})
	}
}

// TestPreparedExecConcurrent: 16 goroutines Exec 5 templates with
// rotating bindings on one executor pool (run with -race), rebinding the
// shared template graphs and harvesting through the server's one key
// buffer and the entries' harvest records; the last template rotates
// more bindings than an entry holds records, so they are replaced under
// concurrent hits. Every reply must be the serial answer, the store what
// the unmemoized harvest of the same executions holds, the pool drained.
func TestPreparedExecConcurrent(t *testing.T) {
	templates := []string{
		"SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > ?;",
		"SELECT COUNT(*) FROM posts p, users u, comments c WHERE p.owner_user_id = u.id AND c.post_id = p.id AND p.views > ? AND c.score BETWEEN ? AND ?;",
		"SELECT COUNT(*) FROM badges, users WHERE badges.user_id = users.id AND badges.class = ? AND users.reputation > ?;",
		"SELECT COUNT(*) FROM votes WHERE votes.vote_type = ?;",
		"SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.views > ?;",
	}
	bindings := [][][]any{
		{{5}, {20}, {1}, {50}},
		{{100, 0, 5}, {10, 1, 3}, {0, 0, 0}, {500, 2, 9}},
		{{1, 10}, {2, 0}, {3, 100}, {1, 1}},
		{{2}, {1}, {3}, {5}},
		nil,
	}
	for v := range 3 * maxRecords / 2 {
		bindings[4] = append(bindings[4], []any{10 * v})
	}
	prepare := func(s *Server) []*Stmt {
		stmts := make([]*Stmt, len(templates))
		for i, sql := range templates {
			st, err := s.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			stmts[i] = st
		}
		return stmts
	}
	serial, _ := newFixture(t, Config{})
	want := make([][]int64, len(templates))
	for i, st := range prepare(serial) {
		for _, b := range bindings[i] {
			res, err := serial.Exec(context.Background(), "a", st, b...)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], res.Count)
		}
	}

	s, cat := newFixture(t, Config{})
	pool := exec.NewDebugBatchPool()
	s.ex = exec.New(cat)
	s.ex.SetPool(pool)
	m := newMirror()
	s.SetObserver(m)
	stmts := prepare(s)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tpl := (g + i) % len(templates)
				b := (g/4 + i) % len(bindings[tpl])
				res, err := s.Exec(context.Background(), "a", stmts[tpl], bindings[tpl][b]...)
				if err != nil {
					errc <- err
					return
				}
				if res.Count != want[tpl][b] {
					errc <- fmt.Errorf("template %d binding %d: count %d, serial %d", tpl, b, res.Count, want[tpl][b])
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
	requireMirrored(t, s, m, "after concurrent prepared execs")
}

// TestHarvestMemoConcurrentHits: 16 goroutines on one key race the first
// hit's memoization while 16 more each own a key, all on one executor pool
// (run with -race). Every reply must be the serial answer, the store what
// the unmemoized harvest of the same executions holds, the pool drained.
func TestHarvestMemoConcurrentHits(t *testing.T) {
	serial, _ := newFixture(t, Config{})
	shared := memoSQL[1]
	sqls := []string{shared}
	for i := 0; i < 16; i++ {
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
	m := newMirror()
	s.SetObserver(m)
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for g := 0; g < 32; g++ {
		sql := shared
		if g >= 16 {
			sql = sqls[1+g-16]
		}
		// Two tenants' slots let all 32 goroutines run at once.
		tenant := fmt.Sprint("t", g%2)
		wg.Add(1)
		go func(sql string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := s.Query(context.Background(), tenant, sql)
				if err != nil {
					errc <- err
					return
				}
				if res.Count != want[sql] {
					errc <- fmt.Errorf("%s: count %d, serial %d", sql, res.Count, want[sql])
					return
				}
			}
		}(sql)
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
	// A sub-query's truth does not depend on which request wrote it last.
	requireMirrored(t, s, m, "after concurrent hits")
}

// TestHarvestRecordsMatchTheirStatement: two statements of one shape key
// spell their conjuncts in different orders, a literal predicate before
// the ?s in one and after them in the other, so they share one plan-cache
// entry but not their predicate positions: the first bound to (7, 3) and
// the second to (3, 7) have the same values position by position, yet
// filter score and reputation differently. A record matches a binding of
// its own statement only: every reply must be the ad-hoc text's, and the
// store the mirror's.
func TestHarvestRecordsMatchTheirStatement(t *testing.T) {
	s, _ := newFixture(t, Config{InvalidateQError: -1})
	ref, _ := newFixture(t, Config{InvalidateQError: -1})
	m := newMirror()
	s.SetObserver(m)
	const text = "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND %s;"
	var stmts []*Stmt
	for _, where := range []string{
		"posts.views > 3 AND posts.score > ? AND users.reputation >= ?",
		"posts.score > ? AND users.reputation >= ? AND posts.views > 3",
	} {
		st, err := s.Prepare(fmt.Sprintf(text, where))
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, st)
	}
	key := stmts[0].e.Load().st.ShapeKey()
	if stmts[1].e.Load().st.ShapeKey() != key {
		t.Fatal("the two spellings do not share a shape key")
	}
	bindings := [][2]int{{7, 3}, {3, 7}, {0, 0}, {20, 100}}
	for round := 0; round < 3; round++ {
		for _, b := range bindings {
			for i, st := range stmts {
				at := fmt.Sprintf("round %d statement %d binding %v", round, i, b)
				res, err := s.Exec(context.Background(), "a", st, b[0], b[1])
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Query(context.Background(), "a", fmt.Sprintf(text,
					fmt.Sprintf("posts.views > 3 AND posts.score > %d AND users.reputation >= %d", b[0], b[1])))
				if err != nil {
					t.Fatal(err)
				}
				if res.Count != want.Count {
					t.Fatalf("%s: served %d, the ad-hoc text %d", at, res.Count, want.Count)
				}
				requireMirrored(t, s, m, at)
			}
		}
	}
	want := min(len(stmts)*len(bindings), maxRecords)
	if recs, _ := recordsOf(s, key); len(recs) != want {
		t.Fatalf("the shared entry holds %d records, want %d", len(recs), want)
	}
	if n := requireOwnKeys(t, s, key, "after 3 rounds"); n != want {
		t.Fatalf("%d of %d records are current", n, want)
	}
}

// TestHarvestRecordsThrash rotates more bindings than an entry holds
// records, so every hit finds its binding's record replaced and harvests
// through the rebound graph: replies and store must stay right, the
// records bounded, and such a hit must allocate no more than a prepared
// hit did before records (9).
func TestHarvestRecordsThrash(t *testing.T) {
	s, stmt := newHitFixture(t, 0)
	ref, _ := newHitFixture(t, 0)
	m := newMirror()
	s.SetObserver(m)
	key := stmt.e.Load().st.ShapeKey()
	for i := 0; i < 3*len(wideBindings); i++ {
		v := wideBindings[i%len(wideBindings)]
		res, err := s.Exec(context.Background(), "a", stmt, v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(context.Background(), "a", fmt.Sprintf(
			"SELECT COUNT(*) FROM posts, users, comments WHERE posts.owner_user_id = users.id AND comments.post_id = posts.id AND posts.score > %d;", v))
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want.Count {
			t.Fatalf("request %d: served %d, the ad-hoc text %d", i, res.Count, want.Count)
		}
		at := fmt.Sprintf("request %d", i)
		requireMirrored(t, s, m, at)
		if recs, _ := recordsOf(s, key); len(recs) > maxRecords {
			t.Fatalf("%s: %d records, bound %d", at, len(recs), maxRecords)
		}
		requireOwnKeys(t, s, key, at)
	}
	if raceEnabled {
		return // sync.Pool drops puts at random under the race detector
	}
	s.SetObserver(nil)
	i := 0
	got := testing.AllocsPerRun(100, func() {
		if _, err := s.Exec(context.Background(), "a", stmt, wideBindings[i%len(wideBindings)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got > 9 {
		t.Errorf("a hit whose record was replaced allocates %.1f objects, ceiling 9", got)
	}
	t.Logf("%.1f allocations per hit without a record", got)
}
