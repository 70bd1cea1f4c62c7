package cardest

import (
	"context"
	"math"
	"reflect"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// graphEstimator is opt.GraphEstimator, restated: cardest does not
// import the planner.
type graphEstimator interface {
	Estimator
	EstimateGraph(ctx context.Context, g *query.JoinGraph, cards []float64) error
}

// edgeQueries are hand-built queries that no generator produces: a ref
// whose table neither the catalog nor the statistics know, a join
// condition written twice next to a self-join condition, an alias
// declared twice, and a predicate on an alias the query never declares.
func edgeQueries() []*query.Query {
	gt := func(alias, col string, v int64) query.Pred {
		return query.Pred{Alias: alias, Column: col, Op: query.Gt, Val: data.IntVal(v)}
	}
	ownerJoin := query.Join{LeftAlias: "p", LeftCol: "owner_user_id", RightAlias: "u", RightCol: "id"}
	return []*query.Query{{
		Refs:  []query.TableRef{{Table: "posts", Alias: "p"}, {Table: "nosuch", Alias: "x"}, {Table: "users", Alias: "u"}},
		Joins: []query.Join{ownerJoin, {LeftAlias: "x", LeftCol: "id", RightAlias: "p", RightCol: "id"}},
		Preds: []query.Pred{gt("p", "score", 5), gt("x", "id", 3)},
	}, {
		Refs: []query.TableRef{{Table: "posts", Alias: "p"}, {Table: "users", Alias: "u"}, {Table: "comments", Alias: "c"}},
		Joins: []query.Join{ownerJoin, {LeftAlias: "c", LeftCol: "post_id", RightAlias: "p", RightCol: "id"}, ownerJoin,
			{LeftAlias: "p", LeftCol: "id", RightAlias: "p", RightCol: "owner_user_id"}},
		Preds: []query.Pred{gt("u", "reputation", 10), gt("c", "score", 1), gt("p", "views", 20)},
	}, {
		Refs:  []query.TableRef{{Table: "posts", Alias: "a"}, {Table: "users", Alias: "a"}, {Table: "comments", Alias: "c"}},
		Joins: []query.Join{{LeftAlias: "c", LeftCol: "post_id", RightAlias: "a", RightCol: "id"}},
		Preds: []query.Pred{gt("a", "score", 3), gt("c", "score", 0)},
	}, {
		Refs:  []query.TableRef{{Table: "posts", Alias: "p"}, {Table: "users", Alias: "u"}},
		Joins: []query.Join{ownerJoin},
		Preds: []query.Pred{gt("z", "score", 1), gt("p", "score", 2), gt("u", "age", 30)},
	}}
}

// TestEstimateGraphMatchesEstimate: every estimator that answers a join
// graph at once, trained on StatsCEB, must answer each mask exactly as
// its Estimate answers the mask's sub-query — by Float64bits, on every
// mask of the golden matrix's workload shape and of the edge cases — and
// must fail before training. The list of such estimators is pinned:
// naru draws from an rng on every call and glue corrects per template,
// so they answer per mask.
func TestEstimateGraphMatchesEstimate(t *testing.T) {
	w := getWorld(t)
	qs := workload.GenWorkload(w.cat, workload.Options{Seed: 11, Count: 80, MinJoins: 1, MaxJoins: 6})
	qs = append(qs, edgeQueries()...)
	var capable []string
	for _, inf := range Registry() {
		ge, ok := inf.Make().(graphEstimator)
		if !ok {
			continue
		}
		capable = append(capable, inf.Name)
		g := query.NewJoinGraph(qs[0])
		if ge.EstimateGraph(context.Background(), g, make([]float64, 1<<len(g.Aliases))) == nil {
			t.Errorf("%s answered a graph before training", inf.Name)
		}
		if err := ge.Train(w.ctx); err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			g := query.NewJoinGraph(q)
			cards := make([]float64, 1<<len(g.Aliases))
			if err := ge.EstimateGraph(context.Background(), g, cards); err != nil {
				t.Fatalf("%s failed a graph after training: %v", inf.Name, err)
			}
			for m, got := range cards {
				if want := ge.Estimate(g.Sub(uint64(m))); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s mask %b of\n%s\ngraph %v, Estimate %v", inf.Name, m, q.SQL(), got, want)
				}
			}
		}
	}
	if want := []string{"histogram", "quicksel", "kde", "bayesnet", "spn", "iris"}; !reflect.DeepEqual(capable, want) {
		t.Errorf("graph-capable estimators %v, want %v", capable, want)
	}
}
