package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/guard"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
)

func newFixture(t *testing.T, cfg Config) (*Server, *data.Catalog) {
	t.Helper()
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	return New(cat, opt.New(cat, cost.New(cs), hist), exec.New(cat), cfg), cat
}

func TestQueryCacheHitResultsIdentical(t *testing.T) {
	s, _ := newFixture(t, Config{})
	sql := "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 5;"
	cold, err := s.Query(context.Background(), "a", sql)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first execution reported a cache hit")
	}
	hit, err := s.Query(context.Background(), "a", sql)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second execution missed the cache")
	}
	if hit.Count != cold.Count || hit.Value != cold.Value {
		t.Fatalf("cached result diverged: cold %+v hit %+v", cold, hit)
	}
	st := s.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.ColdPlans != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCanonicalKeySharesCacheAcrossSpelling(t *testing.T) {
	s, _ := newFixture(t, Config{})
	a := "SELECT COUNT(*) FROM posts p, users u WHERE p.owner_user_id = u.id AND p.views > 1000;"
	// Same query: different case, whitespace, ref order and join side
	// order (numeric-spelling merging is covered by query/key_test.go).
	b := "select count(*) from users u, posts p where u.id = p.owner_user_id and p.views > 1000"
	ra, err := s.Query(context.Background(), "a", a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.Query(context.Background(), "a", b)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Cached {
		t.Fatal("spelling variant missed the cache")
	}
	if ra.Count != rb.Count {
		t.Fatalf("counts diverged: %d vs %d", ra.Count, rb.Count)
	}
}

func TestPreparedExecCachesOnShape(t *testing.T) {
	s, _ := newFixture(t, Config{})
	stmt, err := s.Prepare("SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > ?;")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d", stmt.NumParams())
	}
	r1, err := s.Exec(context.Background(), "a", stmt, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first Exec reported a cache hit")
	}
	// A different binding reuses the generic plan but must produce the
	// same answer as an ad-hoc query with the literal inlined.
	r2, err := s.Exec(context.Background(), "a", stmt, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("second Exec missed the cache")
	}
	adhoc, err := s.Query(context.Background(), "a", "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 20;")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Count != adhoc.Count || r2.Value != adhoc.Value {
		t.Fatalf("rebound plan diverged from ad-hoc: %+v vs %+v", r2, adhoc)
	}
}

// constEstimator always answers 1 row — wrong by construction, so cached
// plans fail the q-error drift check once real cardinalities come back.
type constEstimator struct{}

func (constEstimator) Estimate(q *query.Query) float64 { return 1 }

func TestFeedbackInvalidationReplans(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	s := New(cat, opt.New(cat, cost.New(cs), constEstimator{}), exec.New(cat), Config{InvalidateQError: 2})
	sql := "SELECT COUNT(*) FROM posts WHERE posts.views >= 0;"

	if _, err := s.Query(context.Background(), "a", sql); err != nil {
		t.Fatal(err)
	}
	// Hit: the drift check fires against the executed truth and evicts.
	r2, err := s.Query(context.Background(), "a", sql)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("second run missed the cache")
	}
	st := s.Stats()
	if st.Cache.Invalidations == 0 {
		t.Fatalf("drifted plan not invalidated: %+v", st)
	}
	// Next run replans cold — with harvested feedback, so its estimates
	// now match the truth and the entry stabilizes.
	r3, err := s.Query(context.Background(), "a", sql)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("invalidated entry served a cache hit")
	}
	r4, err := s.Query(context.Background(), "a", sql)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Cached {
		t.Fatal("replanned entry not cached")
	}
	after := s.Stats()
	if after.Cache.Invalidations != st.Cache.Invalidations {
		t.Fatalf("feedback-informed replan invalidated again: %+v", after)
	}
	if after.ColdPlans != 2 {
		t.Fatalf("ColdPlans = %d, want 2", after.ColdPlans)
	}
}

func TestBreakerShedsFailingTenant(t *testing.T) {
	s, _ := newFixture(t, Config{Breaker: guard.BreakerConfig{FailureThreshold: 2}})
	sql := "SELECT COUNT(*) FROM users WHERE users.age > 30;"
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2; i++ {
		if _, err := s.Query(canceled, "bad", sql); err == nil {
			t.Fatal("canceled query succeeded")
		}
	}
	if _, err := s.Query(context.Background(), "bad", sql); !errors.Is(err, ErrShed) {
		t.Fatalf("tripped tenant not shed: %v", err)
	}
	// Other tenants are isolated from the tripped breaker.
	if _, err := s.Query(context.Background(), "good", sql); err != nil {
		t.Fatalf("healthy tenant affected: %v", err)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d", st.Shed)
	}
}

func TestAdmissionQueueBounds(t *testing.T) {
	a := newAdmission(1, 1, guard.BreakerConfig{})
	rel1, _, err := a.acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue.
	var wg sync.WaitGroup
	wg.Add(1)
	waiterIn := make(chan struct{})
	go func() {
		defer wg.Done()
		close(waiterIn)
		rel2, _, err := a.acquire(context.Background(), "t")
		if err != nil {
			t.Errorf("queued acquire failed: %v", err)
			return
		}
		rel2()
	}()
	<-waiterIn
	// Spin until the waiter is actually counted, then overflow the queue.
	for {
		a.tenant("t").mu.Lock()
		w := a.tenant("t").waiting
		a.tenant("t").mu.Unlock()
		if w == 1 {
			break
		}
	}
	if _, _, err := a.acquire(context.Background(), "t"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue overflow not rejected: %v", err)
	}
	// A different tenant is unaffected.
	relB, _, err := a.acquire(context.Background(), "other")
	if err != nil {
		t.Fatal(err)
	}
	relB()
	rel1()
	wg.Wait()
	if rejected, _ := a.stats(); rejected != 1 {
		t.Fatalf("rejected = %d", rejected)
	}
}

func TestAcquireHonorsContextWhileQueued(t *testing.T) {
	a := newAdmission(1, 4, guard.BreakerConfig{})
	rel, _, err := a.acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := a.acquire(ctx, "t")
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire returned %v", err)
	}
}

func TestInvalidateDropsEntry(t *testing.T) {
	s, _ := newFixture(t, Config{})
	sql := "SELECT COUNT(*) FROM badges WHERE badges.class = 1;"
	if _, err := s.Query(context.Background(), "a", sql); err != nil {
		t.Fatal(err)
	}
	ok, err := s.Invalidate(sql)
	if err != nil || !ok {
		t.Fatalf("Invalidate = %v, %v", ok, err)
	}
	r, err := s.Query(context.Background(), "a", sql)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("invalidated entry served a hit")
	}
}

// recordingObserver counts ObserveExec calls and remembers the last tree's
// per-node TrueCard annotations.
type recordingObserver struct {
	mu    sync.Mutex
	calls int
	keys  []string
	cards []float64
}

func (o *recordingObserver) ObserveExec(q *query.Query, executed *plan.Node) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calls++
	o.keys = append(o.keys, q.Key())
	o.cards = o.cards[:0]
	executed.Walk(func(n *plan.Node) { o.cards = append(o.cards, n.TrueCard) })
}

func TestObserverSeesEveryExecution(t *testing.T) {
	s, _ := newFixture(t, Config{})
	obs := &recordingObserver{}
	s.SetObserver(obs)
	sql := "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 5;"
	r1, err := s.Query(context.Background(), "a", sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), "a", sql); err != nil {
		t.Fatal(err)
	}
	if obs.calls != 2 {
		t.Fatalf("observer saw %d executions, want 2 (cold + cached)", obs.calls)
	}
	if obs.keys[0] != obs.keys[1] {
		t.Fatal("observer saw different query keys for the same SQL")
	}
	// The observed tree carries execution truth: the root's TrueCard is the
	// result cardinality (pre-order walk visits the root first).
	if obs.cards[0] != float64(r1.Count) {
		t.Fatalf("observed root TrueCard %g, want result count %d", obs.cards[0], r1.Count)
	}
	// Removing the observer stops deliveries.
	s.SetObserver(nil)
	if _, err := s.Query(context.Background(), "a", sql); err != nil {
		t.Fatal(err)
	}
	if obs.calls != 2 {
		t.Fatal("removed observer still received executions")
	}
}

func TestFlushPlansAndResetFeedback(t *testing.T) {
	s, _ := newFixture(t, Config{})
	for _, sql := range []string{
		"SELECT COUNT(*) FROM badges WHERE badges.class = 1;",
		"SELECT COUNT(*) FROM posts WHERE posts.score > 5;",
	} {
		if _, err := s.Query(context.Background(), "a", sql); err != nil {
			t.Fatal(err)
		}
	}
	if s.CacheLen() != 2 {
		t.Fatalf("CacheLen = %d, want 2", s.CacheLen())
	}
	if s.FeedbackLen() == 0 {
		t.Fatal("no feedback harvested")
	}
	if n := s.FlushPlans(); n != 2 {
		t.Fatalf("FlushPlans dropped %d plans, want 2", n)
	}
	if s.CacheLen() != 0 {
		t.Fatalf("CacheLen = %d after flush", s.CacheLen())
	}
	if n := s.ResetFeedback(); n == 0 {
		t.Fatal("ResetFeedback dropped nothing")
	}
	if s.FeedbackLen() != 0 {
		t.Fatalf("FeedbackLen = %d after reset", s.FeedbackLen())
	}
	// The server keeps serving: next request replans cold.
	r, err := s.Query(context.Background(), "a", "SELECT COUNT(*) FROM badges WHERE badges.class = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("flushed cache served a hit")
	}
}

// TestDriftedCatalogFeedbackDoesNotPoisonReplans drives the stale-plan
// scenario end to end: a plan cached before catalog drift executes against
// the grown data, the q-error drift check evicts it, and the replan must
// use POST-drift truth — the feedback store's always-update-existing-keys
// rule means stale pre-drift truths are overwritten by the very execution
// that triggers invalidation, so the replanned entry stabilizes instead of
// thrashing on poisoned feedback.
func TestDriftedCatalogFeedbackDoesNotPoisonReplans(t *testing.T) {
	s, cat := newFixture(t, Config{InvalidateQError: 2})
	sql := "SELECT COUNT(*) FROM posts, comments WHERE comments.post_id = posts.id AND posts.views > 2000;"
	pre, err := s.Query(context.Background(), "a", sql)
	if err != nil {
		t.Fatal(err)
	}

	// Catalog drifts under the server: growth plus both value axes.
	datagen.ApplyDrift(cat, datagen.DriftOptions{Seed: 99, Fraction: 0.8, ValueSkew: 2, DomainShift: 0.5})

	// The cached (now stale) plan still executes correctly against the
	// drifted data — plans are logical recipes, not materialized state.
	post1, err := s.Query(context.Background(), "a", sql)
	if err != nil {
		t.Fatal(err)
	}
	if !post1.Cached {
		t.Fatal("stale plan should still be served from cache")
	}
	if post1.Count == pre.Count {
		t.Skip("drift did not change this query's result; scenario vacuous")
	}

	// Replans until the entry stabilizes; every replan must return the
	// drifted truth (fresh feedback), never the pre-drift count.
	var last *Result
	for i := 0; i < 6; i++ {
		r, err := s.Query(context.Background(), "a", sql)
		if err != nil {
			t.Fatal(err)
		}
		if r.Count != post1.Count {
			t.Fatalf("replan %d returned %d, drifted truth is %d (pre-drift was %d): feedback poisoned the replan", i, r.Count, post1.Count, pre.Count)
		}
		last = r
	}
	if !last.Cached {
		t.Fatal("entry never stabilized after drift: feedback-informed replan keeps invalidating")
	}
}

// TestAbsorbAtFeedbackCapIsDeterministic pins which keys land once the
// feedback store is full: with FeedbackCap below one plan's node count the
// store must hold the first labels of the plan's pre-order, the same ones
// on every server. Harvesting through a map made the survivors depend on
// Go's randomized iteration order.
func TestAbsorbAtFeedbackCapIsDeterministic(t *testing.T) {
	const feedbackCap = 3
	sql := "SELECT COUNT(*) FROM posts p, users u, comments c, votes v " +
		"WHERE p.owner_user_id = u.id AND c.post_id = p.id AND v.post_id = p.id AND p.score > 1;"
	var first map[string]float64
	for run := 0; run < 8; run++ {
		s, cat := newFixture(t, Config{FeedbackCap: feedbackCap})
		if _, err := s.Query(context.Background(), "a", sql); err != nil {
			t.Fatal(err)
		}
		store := feedbackOf(s)
		if len(store) != feedbackCap {
			t.Fatalf("run %d: store holds %d keys, want the cap %d (a 4-table plan has 7 nodes)", run, len(store), feedbackCap)
		}
		if first == nil {
			first = store
			q, err := sqlx.Parse(sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := store[q.Key()]; !ok {
				t.Fatal("the plan root, first in pre-order, did not land in the store")
			}
			continue
		}
		if !reflect.DeepEqual(store, first) {
			t.Fatalf("run %d: store %v, first run %v", run, store, first)
		}
	}
}
