package adapt

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// TestCollectorObserveRunMatchesAdd is a differential test of the
// collector's run path: over generated StatsCEB queries of 1–5 joins,
// ObserveRun must leave the same labels, in the same order, as add of
// every node's g.Sub(mask) in pre-order. Runs repeat, often back to back,
// so that at small caps a label a run starts with is evicted by the
// run's own new labels before its node is reached.
func TestCollectorObserveRunMatchesAdd(t *testing.T) {
	f := newFixture(t)
	qs := workload.GenWorkload(f.cat, workload.Options{Seed: 38, Count: 16, MinJoins: 1, MaxJoins: 5, MaxPreds: 3})
	type run struct {
		g *query.JoinGraph
		p *plan.Node
	}
	runs := make([]run, len(qs))
	for i, q := range qs {
		p, err := f.opt.OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = run{query.NewJoinGraph(q), p}
	}
	rng := rand.New(rand.NewSource(38))
	for _, capacity := range []int{3, 8, 0} {
		got, want := NewCollector(capacity), NewCollector(capacity)
		evictedFirst := 0
		r := runs[0]
		for step := 0; step < 300; step++ {
			if rng.Intn(3) > 0 {
				r = runs[rng.Intn(len(runs))]
			}
			cards := make([]float64, len(r.p.Nodes()))
			for i := range cards {
				cards[i] = float64(rng.Intn(1000))
			}
			got.ObserveRun(r.g, r.p, cards)

			known := make(map[string]bool, len(want.index))
			for k := range want.index {
				known[k] = true
			}
			i := 0
			r.p.WalkLogicalMasks(r.g, func(_ *plan.Node, mask uint64) {
				sub := r.g.Sub(mask)
				if _, ok := want.index[sub.Key()]; known[sub.Key()] && !ok {
					evictedFirst++
				}
				want.add(sub, cards[i])
				i++
			})
			if g, w := got.Samples(), want.Samples(); !reflect.DeepEqual(g, w) {
				t.Fatalf("cap %d, step %d: ObserveRun left %d labels, per-node add %d, or they differ", capacity, step, len(g), len(w))
			}
		}
		if capacity == 3 && evictedFirst == 0 {
			t.Error("cap 3: no run evicted a label it started with before reaching its node")
		}
		t.Logf("cap %d: %d labels, %d evicted before their node", capacity, got.Len(), evictedFirst)
	}
}

// TestCollectorConcurrentRuns observes runs from several goroutines into
// one small collector, as concurrent requests do through a server's
// observer: under -race it checks the evicting FIFO, and after it every
// held label must sit where its index says.
func TestCollectorConcurrentRuns(t *testing.T) {
	f := newFixture(t)
	qs := workload.GenWorkload(f.cat, workload.Options{Seed: 39, Count: 8, MinJoins: 1, MaxJoins: 4, MaxPreds: 2})
	c := NewCollector(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				q := qs[(w+i)%len(qs)]
				p, err := f.opt.OptimizeCtx(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				c.ObserveRun(query.NewJoinGraph(q), p, make([]float64, len(p.Nodes())))
			}
		}()
	}
	wg.Wait()
	samples := c.Samples()
	if len(samples) != 8 || len(c.index) != 8 {
		t.Fatalf("%d labels and %d index entries, want 8 of each", len(samples), len(c.index))
	}
	for i, s := range samples {
		if got := c.index[s.Q.Key()]; got != c.base+i {
			t.Errorf("label %d is indexed at sequence %d, want %d", i, got, c.base+i)
		}
	}
}
