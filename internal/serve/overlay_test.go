package serve

import (
	"context"
	"math"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
)

// TestFeedbackOverlayGraphMatchesPerMask: with some masks' truths in the
// store — harvested from a plan of the query through its graph, and from
// a plan of a cross product of two of its tables through memoized labels,
// which gives a pair no join edge connects — the overlay's answer for the
// join graph equals its per-mask Estimate on every non-empty mask, truths
// included, over a base that answers the graph and over one without the
// graph method alike.
func TestFeedbackOverlayGraphMatchesPerMask(t *testing.T) {
	s, cat := newFixture(t, Config{})
	q, err := sqlx.Parse("SELECT COUNT(*) FROM posts, users, comments, badges WHERE posts.owner_user_id = users.id"+
		" AND comments.post_id = posts.id AND badges.user_id = users.id AND posts.score > 5;", cat)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := sqlx.Parse("SELECT COUNT(*) FROM comments, badges;", cat)
	if err != nil {
		t.Fatal(err)
	}
	g := query.NewJoinGraph(q)
	comments, badges := g.Bit("comments"), g.Bit("badges")
	if g.Nbr(comments)&badges != 0 {
		t.Fatal("comments and badges should not share a join edge")
	}
	for i, sub := range []*query.Query{q, cross} {
		p, err := exec.CanonicalPlan(sub)
		if err != nil {
			t.Fatal(err)
		}
		cards := make([]float64, len(p.Nodes()))
		for j := range cards {
			cards[j] = float64(100*i + 11*(j+1))
		}
		var ent *cacheEntry // q as a miss, cross as its entry's first hit
		if i == 1 {
			ent = &cacheEntry{}
		}
		s.harvest(sub, query.NewJoinGraph(sub), nil, p, cards, ent)
	}
	store := feedbackOf(s)
	if _, ok := store[g.Key(comments|badges)]; !ok {
		t.Fatal("the cross product's pair is not in the store")
	}

	cards := make([]float64, 1<<len(g.Aliases))
	for _, fe := range []*feedbackEstimator{s.opt.Est.(*feedbackEstimator), {s: s, base: constEstimator{}}} {
		if err := fe.EstimateGraph(context.Background(), g, cards); err != nil {
			t.Fatalf("over %T: %v", fe.base, err)
		}
		for m := 1; m < len(cards); m++ {
			got := cards[m]
			if want := fe.Estimate(g.Sub(uint64(m))); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("over %T, mask %b: graph %v, Estimate %v", fe.base, m, got, want)
			}
			if truth, ok := store[g.Key(uint64(m))]; ok && got != truth {
				t.Errorf("over %T, mask %b: graph %v, stored truth %v", fe.base, m, got, truth)
			}
		}
	}
}

// TestFeedbackOverlayHashHitNeedsTheKey: a hash in the set whose key the
// store does not hold decides nothing. With every mask's hash forced into
// the set and only other keys stored, the overlay answers the base's
// estimate on every mask.
func TestFeedbackOverlayHashHitNeedsTheKey(t *testing.T) {
	s, cat := newFixture(t, Config{})
	q, err := sqlx.Parse("SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 5;", cat)
	if err != nil {
		t.Fatal(err)
	}
	g := query.NewJoinGraph(q)
	s.mu.Lock()
	absorb(s, "not a key", 7)
	for m := uint64(0); m < 1<<len(g.Aliases); m++ {
		s.hashes[g.KeyHash(m)] = struct{}{}
	}
	s.mu.Unlock()

	fe := s.opt.Est.(*feedbackEstimator)
	got, want := make([]float64, 1<<len(g.Aliases)), make([]float64, 1<<len(g.Aliases))
	if err := fe.EstimateGraph(context.Background(), g, got); err != nil {
		t.Fatal(err)
	}
	if err := opt.EstimateGraph(context.Background(), fe.base, g, want); err != nil {
		t.Fatal(err)
	}
	for m := range got {
		if w := metrics.ClampCard(want[m]); math.Float64bits(got[m]) != math.Float64bits(w) {
			t.Errorf("mask %b: overlay %v, base %v", m, got[m], w)
		}
	}
}

// flushingEstimator flushes its server's plan cache from inside its
// first Estimate, as a hot swap may while a request plans, and otherwise
// answers like base.
type flushingEstimator struct {
	s       *Server
	base    opt.CardEstimator
	flushed bool
}

func (f *flushingEstimator) Estimate(q *query.Query) float64 {
	if !f.flushed {
		f.flushed = true
		f.s.FlushPlans()
	}
	return f.base.Estimate(q)
}

// TestPlanMadeAcrossFlushIsNotCached: a plan whose planning saw
// FlushPlans may embody the retired estimator, so the miss that made it
// serves it without caching it, and the next request plans cold.
func TestPlanMadeAcrossFlushIsNotCached(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	fl := &flushingEstimator{base: hist}
	s := New(cat, opt.New(cat, cost.New(cs), fl), exec.New(cat), Config{})
	fl.s = s
	sql := "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 5;"
	for i, wantCached := range []bool{false, false, true} {
		r, err := s.Query(context.Background(), "a", sql)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached != wantCached {
			t.Fatalf("request %d: cached %v, want %v", i, r.Cached, wantCached)
		}
		if i == 0 && len(s.cache.entries) != 0 {
			t.Fatal("the plan made across FlushPlans was cached")
		}
	}
	if st := s.Stats(); st.ColdPlans != 2 {
		t.Fatalf("ColdPlans = %d, want 2", st.ColdPlans)
	}
}
