// Tests for the hit path's harvest memo: whatever a hit writes into the
// feedback store through memoized keys must be what the unmemoized harvest
// — absorb(opt.HarvestCards(g, p, cards)) per request — would have written.
package serve

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"

	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
)

// mirrorStore is the reference feedback store: an ExecObserver (so it sees
// exactly the run record the server harvested) that absorbs
// opt.HarvestCards under the server's admission rule.
type mirrorStore struct {
	mu     sync.Mutex
	cap    int
	store  map[string]float64
	hashes map[uint64]struct{}
}

func newMirror(cap int) *mirrorStore {
	if cap <= 0 {
		cap = 8192 // Config.withDefaults
	}
	m := &mirrorStore{cap: cap}
	m.reset()
	return m
}

func (m *mirrorStore) ObserveRun(g *query.JoinGraph, p *plan.Node, cards []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range opt.HarvestCards(g, p, cards) {
		if _, ok := m.store[l.Key]; !ok && len(m.store) >= m.cap {
			continue
		}
		m.store[l.Key] = l.Card
		m.hashes[l.Hash] = struct{}{}
	}
}

func (m *mirrorStore) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store = map[string]float64{}
	m.hashes = map[uint64]struct{}{}
}

// feedbackOf snapshots the server's feedback store as key -> card.
func feedbackOf(s *Server) map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64, len(s.feedback))
	for k, i := range s.feedback {
		out[k] = s.cards[i]
	}
	return out
}

// requireMirrored fails unless the server's feedback store holds exactly
// the mirror's keys and values, and its hash set exactly their hashes.
func requireMirrored(t *testing.T, s *Server, m *mirrorStore, at string) {
	t.Helper()
	got := feedbackOf(s)
	s.mu.Lock()
	hashes := maps.Clone(s.hashes)
	s.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if !reflect.DeepEqual(got, m.store) {
		t.Fatalf("%s: feedback store diverged from absorb(HarvestCards):\n server %v\n mirror %v", at, got, m.store)
	}
	if !maps.Equal(hashes, m.hashes) {
		t.Fatalf("%s: the server holds %d key hashes, the mirror's keys have %d", at, len(hashes), len(m.hashes))
	}
}

// memoOf returns the labels memoized on the cache entry of a canonical
// key (nil when there are none) and whether the entry exists at all.
func memoOf(s *Server, key string) (memo []opt.CardLabel, cached bool) {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	el, ok := s.cache.entries[s.cacheKey(key)]
	if !ok {
		return nil, false
	}
	if m := el.Value.(*cacheEntry).memo.Load(); m != nil {
		s.mu.Lock()
		memo = m.labels
		s.mu.Unlock()
	}
	return memo, true
}

// hasMemo reports whether key's entry exists and carries a memo.
func hasMemo(s *Server, key string) bool {
	memo, _ := memoOf(s, key)
	return memo != nil
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
// store against the mirror after every request.
func TestHarvestMemoMatchesHarvestCards(t *testing.T) {
	for _, cap := range []int{0, 7, 3} {
		t.Run(fmt.Sprintf("cap=%d", cap), func(t *testing.T) {
			s, _ := newFixture(t, Config{FeedbackCap: cap})
			m := newMirror(cap)
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
					memo, cached := memoOf(s, adhocKey(t, s, sql))
					switch {
					case !res.Cached && memo != nil:
						t.Fatalf("%s: the miss memoized; only a hit may pay for the memo", at)
					case res.Cached && cached && memo == nil:
						t.Fatalf("%s: a hit left no memo", at)
					}
					memoized = memoized || memo != nil
				}
			}
			if !memoized {
				t.Fatal("no request ever went through a memo")
			}
			if cap > 0 && s.FeedbackLen() != cap {
				t.Fatalf("FeedbackLen = %d, want the cap %d", s.FeedbackLen(), cap)
			}
			// ResetFeedback empties the store under live memos: the next
			// hits must write every key again, not only changed ones.
			s.ResetFeedback()
			m.reset()
			for i, sql := range memoSQL {
				if _, err := s.Query(context.Background(), "a", sql); err != nil {
					t.Fatal(err)
				}
				requireMirrored(t, s, m, fmt.Sprintf("after reset sql %d", i))
			}
			if s.FeedbackLen() == 0 {
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
	m := newMirror(0)
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
	s.cache.Put(s.cacheKey(key), other)
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
	if ok, err := s.Invalidate(sql); err != nil || !ok || hasMemo(s, key) {
		t.Fatalf("memo survived Invalidate (%v, %v)", ok, err)
	}
	hit(2)
}

// TestHarvestMemoDroppedOnDriftInvalidation: the q-error gate evicts the
// entry on the very hit that memoized it; the replan starts without one.
func TestHarvestMemoDroppedOnDriftInvalidation(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	s := New(cat, opt.New(cat, cost.New(cs), constEstimator{}), exec.New(cat), Config{InvalidateQError: 2})
	m := newMirror(0)
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
		if i == 1 && (s.cache.Len() != 0 || hasMemo(s, key)) {
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
	mp, ms := newMirror(0), newMirror(0)
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
	// The logical walk is shard-blind: both servers learned the same truths.
	if pf, sf := feedbackOf(plain), feedbackOf(sharded); !reflect.DeepEqual(pf, sf) {
		t.Fatalf("sharded feedback differs from unsharded:\n plain   %v\n sharded %v", pf, sf)
	}
}

// TestHarvestMemoPreparedBindingsBypass: a prepared statement's entry is
// keyed on its shape, and each binding has its own sub-query keys — no
// binding may write another's, so such entries never carry a memo. The
// parameterless statement shares its entry with the ad-hoc spelling; its
// Exec path must not read that entry's memo either. Prepared bindings
// write through the rebound template graph and a reused key buffer, so
// the store is checked with an ample and a nearly full cap, and across a
// ResetFeedback mid-stream.
func TestHarvestMemoPreparedBindingsBypass(t *testing.T) {
	for _, cap := range []int{0, 7, 3} {
		t.Run(fmt.Sprintf("cap=%d", cap), func(t *testing.T) {
			// No q-error gate: the generic plan's entry must live through
			// every binding for a wrongly shared memo to show.
			s, _ := newFixture(t, Config{InvalidateQError: -1, FeedbackCap: cap})
			m := newMirror(cap)
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
			if memo, cached := memoOf(s, stmt.e.Load().st.ShapeKey()); !cached || memo != nil {
				t.Fatalf("prepared statement's entry: cached %v, memo %v; want a live entry without a memo", cached, memo)
			}
			if cap > 0 && s.FeedbackLen() != cap {
				t.Fatalf("FeedbackLen = %d, want the cap %d", s.FeedbackLen(), cap)
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
		})
	}
}

// TestPreparedExecConcurrent: 16 goroutines Exec 4 templates with
// rotating bindings on one executor pool (run with -race), rebinding the
// shared template graphs and harvesting through the server's one key
// buffer. Every reply must be the serial answer, the store what the
// unmemoized harvest of the same executions holds, the pool drained.
func TestPreparedExecConcurrent(t *testing.T) {
	templates := []string{
		"SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > ?;",
		"SELECT COUNT(*) FROM posts p, users u, comments c WHERE p.owner_user_id = u.id AND c.post_id = p.id AND p.views > ? AND c.score BETWEEN ? AND ?;",
		"SELECT COUNT(*) FROM badges, users WHERE badges.user_id = users.id AND badges.class = ? AND users.reputation > ?;",
		"SELECT COUNT(*) FROM votes WHERE votes.vote_type = ?;",
	}
	bindings := [][][]any{
		{{5}, {20}, {1}, {50}},
		{{100, 0, 5}, {10, 1, 3}, {0, 0, 0}, {500, 2, 9}},
		{{1, 10}, {2, 0}, {3, 100}, {1, 1}},
		{{2}, {1}, {3}, {5}},
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

	s, cat := newFixture(t, Config{TenantSlots: 64})
	pool := exec.NewDebugBatchPool()
	s.ex = exec.New(cat)
	s.ex.SetPool(pool)
	m := newMirror(0)
	s.SetObserver(m)
	stmts := prepare(s)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tpl, b := (g+i)%len(templates), (g/4+i)%4
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

	s, cat := newFixture(t, Config{TenantSlots: 64})
	pool := exec.NewDebugBatchPool()
	s.ex = exec.New(cat)
	s.ex.SetPool(pool)
	m := newMirror(0)
	s.SetObserver(m)
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for g := 0; g < 32; g++ {
		sql := shared
		if g >= 16 {
			sql = sqls[1+g-16]
		}
		wg.Add(1)
		go func(sql string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
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
