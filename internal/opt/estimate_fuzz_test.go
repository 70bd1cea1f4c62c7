package opt

import (
	"context"
	"math"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/data"
	"lqo/internal/exec"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// withEdges adds to q the edge cases of cardest's edge queries that the
// bits of edge pick, none of which the generator produces: 1, a ref to a
// table neither the catalog nor the statistics know, joined and
// filtered; 2, the first join condition written twice and a self-join
// condition; 4, the first alias declared again over another table; 8, a
// predicate on an alias the query never declares.
func withEdges(q *query.Query, edge uint8) *query.Query {
	gt := func(alias, col string, v int64) query.Pred {
		return query.Pred{Alias: alias, Column: col, Op: query.Gt, Val: data.IntVal(v)}
	}
	first := q.Refs[0]
	if edge&1 != 0 {
		q.Refs = append(q.Refs, query.TableRef{Table: "nosuch", Alias: "nosuch"})
		q.Joins = append(q.Joins, query.Join{LeftAlias: "nosuch", LeftCol: "id", RightAlias: first.Alias, RightCol: "id"})
		q.Preds = append(q.Preds, gt("nosuch", "id", 3))
	}
	if edge&2 != 0 && len(q.Joins) > 0 {
		j := q.Joins[0]
		q.Joins = append(q.Joins, j, query.Join{LeftAlias: j.LeftAlias, LeftCol: j.LeftCol, RightAlias: j.LeftAlias, RightCol: "id"})
	}
	if edge&4 != 0 {
		other := "users"
		if first.Table == other {
			other = "posts"
		}
		q.Refs = append(q.Refs, query.TableRef{Table: other, Alias: first.Alias})
	}
	if edge&8 != 0 {
		q.Preds = append(q.Preds, gt("undeclared", "score", 1))
	}
	return q
}

// FuzzEstimateGraph: for every registry estimator that answers a join
// graph at once, EstimateGraph over it and over perMaskEstimator{it}
// agree bit for bit on every non-empty mask. The seed generates a
// StatsCEB query of 1–6 joins, and edge adds edge cases to it
// (withEdges); the seed corpus has each edge case alone and all four.
func FuzzEstimateGraph(f *testing.F) {
	cat, cs, _, _ := goldenWorld(f)
	labeled, err := workload.GenLabeled(cat, exec.NewCardCache(exec.New(cat)), workload.Options{Seed: 13, Count: 40, MaxJoins: 2, MaxPreds: 2})
	if err != nil {
		f.Fatal(err)
	}
	train := make([]cardest.Sample, len(labeled))
	for i, l := range labeled {
		train[i] = cardest.Sample{Q: l.Q, Card: l.Card}
	}
	var ests []CardEstimator
	for _, inf := range cardest.Registry() {
		e := inf.Make()
		if _, ok := e.(GraphEstimator); !ok {
			continue
		}
		if err := e.Train(&cardest.Context{Cat: cat, Stats: cs, Train: train, Seed: 7}); err != nil {
			f.Fatal(err)
		}
		ests = append(ests, e)
	}
	if len(ests) == 0 {
		f.Fatal("no registry estimator answers a join graph")
	}
	for i, edge := range []uint8{0, 1, 2, 4, 8, 15} {
		f.Add(int64(i), edge)
	}
	f.Fuzz(func(t *testing.T, seed int64, edge uint8) {
		q := withEdges(workload.GenWorkload(cat, workload.Options{Seed: seed, Count: 1, MinJoins: 1, MaxJoins: 6})[0], edge)
		g := query.NewJoinGraph(q)
		got, want := make([]float64, 1<<len(g.Aliases)), make([]float64, 1<<len(g.Aliases))
		for _, e := range ests {
			if err := EstimateGraph(context.Background(), e, g, got); err != nil {
				t.Fatal(err)
			}
			if err := EstimateGraph(context.Background(), perMaskEstimator{e}, g, want); err != nil {
				t.Fatal(err)
			}
			for m := 1; m < len(got); m++ {
				if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
					t.Fatalf("%T mask %b of\n%s\ngraph %v, per mask %v", e, m, q.SQL(), got[m], want[m])
				}
			}
		}
	})
}
