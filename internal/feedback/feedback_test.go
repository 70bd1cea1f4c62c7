package feedback

import (
	"context"
	"fmt"
	"maps"
	"math"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/learnedopt"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
)

// fixture returns a small StatsCEB catalog and a histogram estimator
// trained on it, one whose graph method answers every mask at once.
func fixture(t *testing.T) (*data.Catalog, opt.CardEstimator) {
	t.Helper()
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 17})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	return cat, hist
}

func parse(t *testing.T, cat *data.Catalog, sql string) *query.Query {
	t.Helper()
	q, err := sqlx.Parse(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// record returns a run record for p whose cards differ per node and per
// salt, as a harvest needs one.
func record(p *plan.Node, salt int) []float64 {
	cards := make([]float64, len(p.Nodes()))
	for j := range cards {
		cards[j] = float64(100*salt + 11*(j+1))
	}
	return cards
}

// constEstimator answers 1 row and has no graph method.
type constEstimator struct{}

func (constEstimator) Estimate(*query.Query) float64 { return 1 }

const overlaySQL = "SELECT COUNT(*) FROM posts, users, comments, badges WHERE posts.owner_user_id = users.id" +
	" AND comments.post_id = posts.id AND badges.user_id = users.id AND posts.score > 5;"

// TestFeedbackOverlayGraphMatchesPerMask: with some masks' truths in the
// store, the overlay's answer for the join graph equals its per-mask
// Estimate on every non-empty mask, truths included. The stores are a
// server's — harvested from a plan of the query through its graph, and
// from a plan of a cross product of two of its tables through a record,
// which gives a pair no join edge connects — over a base that answers the
// graph and over one without the graph method; and a pilotscope
// session's — truths pushed for some connected masks, that cross
// product's pair and a key of another query — over the scaled estimator
// of the Lero knob.
func TestFeedbackOverlayGraphMatchesPerMask(t *testing.T) {
	cat, hist := fixture(t)
	q := parse(t, cat, overlaySQL)
	cross := parse(t, cat, "SELECT COUNT(*) FROM comments, badges;")
	g := query.NewJoinGraph(q)
	comments, badges, posts := g.Bit("comments"), g.Bit("badges"), g.Bit("posts")
	if g.Nbr(comments)&badges != 0 {
		t.Fatal("comments and badges should not share a join edge")
	}

	served := NewStore()
	for i, sub := range []*query.Query{q, cross} {
		p, err := exec.CanonicalPlan(sub)
		if err != nil {
			t.Fatal(err)
		}
		var rec *Record // q as a miss, cross as a hit's first harvest
		if i == 1 {
			rec = &Record{}
		}
		served.Lock()
		served.Harvest(query.NewJoinGraph(sub), p, record(p, i), rec)
		served.Unlock()
	}
	pushed := NewStore()
	pushed.Push(g, map[string]float64{
		g.Key(posts):                     3,
		g.Key(posts | g.Bit("users")):    0,
		g.Key(comments | badges):         1e12,
		g.Key(g.Nbr(posts) | posts):      -5,
		cross.Key() + "/not a sub-query": 9,
	})
	for _, st := range []*Store{served, pushed} {
		if _, ok := st.Truth(g.Key(comments | badges)); !ok {
			t.Fatal("the cross product's pair is not in the store")
		}
	}

	cards := make([]float64, 1<<len(g.Aliases))
	for _, c := range []struct {
		name string
		o    *Overlay
	}{
		{"served/histogram", &Overlay{Base: hist, Store: served}},
		{"served/per-mask", &Overlay{Base: constEstimator{}, Store: served}},
		{"pushed/scaled", &Overlay{Base: &learnedopt.ScaledEstimator{Base: hist, Factor: 2.5}, Store: pushed}},
	} {
		if err := c.o.EstimateGraph(context.Background(), g, cards); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for m := 1; m < len(cards); m++ {
			got := cards[m]
			if want := c.o.Estimate(g.Sub(uint64(m))); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, mask %b: graph %v, Estimate %v", c.name, m, got, want)
			}
			if truth, ok := c.o.Store.Truth(g.Key(uint64(m))); ok && got != metrics.ClampCard(truth) {
				t.Errorf("%s, mask %b: graph %v, stored truth %v", c.name, m, got, truth)
			}
		}
	}
}

// TestFeedbackOverlayHashHitNeedsTheKey: a hash in the set whose key the
// store does not hold decides nothing. With every mask's hash forced into
// the set and only other keys stored, the overlay answers the base's
// estimate on every mask.
func TestFeedbackOverlayHashHitNeedsTheKey(t *testing.T) {
	cat, hist := fixture(t)
	g := query.NewJoinGraph(parse(t, cat, "SELECT COUNT(*) FROM posts, users WHERE posts.owner_user_id = users.id AND posts.score > 5;"))
	st := NewStore()
	st.slots["not a key"] = 0
	st.cards = append(st.cards, 7)
	for m := uint64(0); m < 1<<len(g.Aliases); m++ {
		st.hashes[g.KeyHash(m)] = struct{}{}
	}

	o := &Overlay{Base: hist, Store: st}
	got, want := make([]float64, 1<<len(g.Aliases)), make([]float64, 1<<len(g.Aliases))
	if err := o.EstimateGraph(context.Background(), g, got); err != nil {
		t.Fatal(err)
	}
	if err := opt.EstimateGraph(context.Background(), hist, g, want); err != nil {
		t.Fatal(err)
	}
	for m := range got {
		if w := metrics.ClampCard(want[m]); math.Float64bits(got[m]) != math.Float64bits(w) {
			t.Errorf("mask %b: overlay %v, base %v", m, got[m], w)
		}
	}
}

// TestStoreHashesFollowKeys: after every step — harvests with and without
// a record, a write through the record, pushes through a narrow and a
// wide graph, harvests into a nearly full store and a Reset — the store
// holds exactly the keys and values of a map fed the same truths in the
// same order under the same admission rule, and its hash set exactly
// their key hashes. A current record writes what a harvest would, and a
// Reset or Invalidate makes it stale.
func TestStoreHashesFollowKeys(t *testing.T) {
	cat, _ := fixture(t)
	q := parse(t, cat, overlaySQL)
	cross := parse(t, cat, "SELECT COUNT(*) FROM comments, badges;")
	st := NewStore()
	want := map[string]float64{}
	hashes := map[string]uint64{}
	admit := func(g *query.JoinGraph, mask uint64, card float64) {
		k := g.Key(mask)
		if _, ok := want[k]; ok || len(want) < Cap {
			want[k], hashes[k] = card, g.KeyHash(mask)
		}
	}
	check := func(at string) {
		t.Helper()
		got := map[string]float64{}
		for k, i := range st.slots {
			got[k] = st.cards[i]
		}
		wantHashes := map[uint64]struct{}{}
		for _, h := range hashes {
			wantHashes[h] = struct{}{}
		}
		if !maps.Equal(got, want) || !maps.Equal(st.hashes, wantHashes) {
			t.Fatalf("%s: store holds %d keys and %d hashes, want %d and %d", at, len(got), len(st.hashes), len(want), len(wantHashes))
		}
	}
	// harvest harvests a run of sub's canonical plan, through rec if it
	// is current, else through the graph, recording into rec.
	harvest := func(sub *query.Query, salt int, rec *Record) {
		t.Helper()
		p, err := exec.CanonicalPlan(sub)
		if err != nil {
			t.Fatal(err)
		}
		g, cards := query.NewJoinGraph(sub), record(p, salt)
		st.Lock()
		if rec != nil && st.Current(rec) {
			st.Write(rec, cards)
		} else {
			st.Harvest(g, p, cards, rec)
		}
		st.Unlock()
		i := 0
		p.WalkLogicalMasks(g, func(_ *plan.Node, mask uint64) {
			admit(g, mask, cards[i])
			i++
		})
	}

	var rec Record
	harvest(q, 0, nil)
	check("miss")
	harvest(cross, 1, &rec)
	check("recorded harvest")
	st.Lock()
	if !st.Current(&rec) {
		t.Fatal("a fresh record is stale")
	}
	st.Unlock()
	harvest(cross, 2, &rec)
	check("write through the record")

	g := query.NewJoinGraph(q)
	truths := map[string]float64{g.Key(g.Bit("users")): 4, g.Key(1<<len(g.Aliases) - 1): 5}
	st.Push(g, truths)
	for m := uint64(1); m < 1<<len(g.Aliases); m++ {
		if c, ok := truths[g.Key(m)]; ok {
			admit(g, m, c)
		}
	}
	check("push")

	// Past 13 aliases Push renders the connected masks only.
	chain := &query.Query{}
	for i := range 14 {
		chain.Refs = append(chain.Refs, query.TableRef{Alias: fmt.Sprint("c", i), Table: "chain"})
		if i > 0 {
			chain.Joins = append(chain.Joins, query.Join{LeftAlias: fmt.Sprint("c", i-1), LeftCol: "id", RightAlias: fmt.Sprint("c", i), RightCol: "id"})
		}
	}
	cg := query.NewJoinGraph(chain)
	st.Push(cg, map[string]float64{cg.Key(0b111): 6, cg.Key(0b101): 7})
	admit(cg, 0b111, 6)
	check("push past 13 aliases")

	filler := &query.Query{}
	for i := range 13 {
		filler.Refs = append(filler.Refs, query.TableRef{Alias: fmt.Sprint("f", i), Table: "filler"})
	}
	fg, fill, n := query.NewJoinGraph(filler), map[string]float64{}, Cap-3-len(want)
	for m := uint64(1); len(fill) < n; m++ {
		fill[fg.Key(m)] = 1
		admit(fg, m, 1)
	}
	st.Push(fg, fill)
	check("fill")
	harvest(parse(t, cat, "SELECT COUNT(*) FROM posts p, users u, votes v WHERE p.owner_user_id = u.id AND v.post_id = p.id;"), 3, nil)
	check("harvest into a nearly full store")
	if len(want) != Cap {
		t.Fatalf("the store holds %d keys, want the cap %d", len(want), Cap)
	}

	if n := st.Reset(); n != Cap {
		t.Fatalf("Reset dropped %d keys, want %d", n, Cap)
	}
	clear(want)
	clear(hashes)
	check("reset")
	harvest(cross, 4, &rec)
	check("a record across Reset")
	st.Lock()
	defer st.Unlock()
	if rec.Invalidate(); st.Current(&rec) {
		t.Fatal("an invalidated record is current")
	}
}
