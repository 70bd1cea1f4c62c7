package serve

import (
	"context"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/query"
	"lqo/internal/stats"
)

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
