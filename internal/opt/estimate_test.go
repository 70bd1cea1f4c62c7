package opt

import (
	"context"
	"errors"
	"math/bits"
	"reflect"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

// keyRecorder answers 1 for every sub-query and records its key; cancel,
// when set, runs on the first call.
type keyRecorder struct {
	keys   []string
	cancel context.CancelFunc
}

func (r *keyRecorder) Estimate(q *query.Query) float64 {
	if r.cancel != nil && len(r.keys) == 0 {
		r.cancel()
	}
	r.keys = append(r.keys, q.Key())
	return 1
}

// graphRecorder is a keyRecorder that also has the graph method, which
// answers 1 for every mask, and counts its calls.
type graphRecorder struct {
	keyRecorder
	graphs int
}

func (r *graphRecorder) EstimateGraph(_ context.Context, g *query.JoinGraph, cards []float64) error {
	r.graphs++
	for m := range cards {
		cards[m] = 1
	}
	return nil
}

// sevenWay joins seven aliases in a tree (users twice), so the DP walks
// past mask 64, where it checks its context.
func sevenWay() *query.Query {
	q := chainQuery()
	q.Refs = append(q.Refs, query.TableRef{Alias: "badges", Table: "badges"}, query.TableRef{Alias: "votes", Table: "votes"},
		query.TableRef{Alias: "postHistory", Table: "postHistory"}, query.TableRef{Alias: "commenter", Table: "users"})
	q.Joins = append(q.Joins,
		query.Join{LeftAlias: "badges", LeftCol: "user_id", RightAlias: "users", RightCol: "id"},
		query.Join{LeftAlias: "votes", LeftCol: "post_id", RightAlias: "posts", RightCol: "id"},
		query.Join{LeftAlias: "postHistory", LeftCol: "post_id", RightAlias: "posts", RightCol: "id"},
		query.Join{LeftAlias: "comments", LeftCol: "user_id", RightAlias: "commenter", RightCol: "id"})
	q.Preds = append(q.Preds, query.Pred{Alias: "badges", Column: "class", Op: query.Eq, Val: data.IntVal(1)})
	return q
}

// TestEstimateAllOrder: an estimator without the graph method is asked
// about every non-empty mask once — the singletons in alias order, then
// the larger masks in ascending order — and one that answers the graph is
// asked nothing else. A context
// canceled by the first estimate stops the DP at its check on mask 64,
// after the seven singletons and the 57 larger masks below 64.
func TestEstimateAllOrder(t *testing.T) {
	f := newFixture(t)
	g := query.NewJoinGraph(sevenWay())
	var want []string
	for i := range g.Aliases {
		want = append(want, g.Key(1<<uint(i)))
	}
	for m := uint64(3); m < 1<<uint(len(g.Aliases)); m++ {
		if bits.OnesCount64(m) >= 2 {
			want = append(want, g.Key(m))
		}
	}
	plain, answers := &keyRecorder{}, &graphRecorder{}
	for _, c := range []struct {
		est  CardEstimator
		rec  *keyRecorder
		want []string
	}{{plain, plain, want}, {answers, &answers.keyRecorder, nil}} {
		if _, err := f.opt.WithEstimator(c.est).enumerate(context.Background(), g); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.rec.keys, c.want) {
			t.Errorf("%T asked about\n%q\nwant\n%q", c.est, c.rec.keys, c.want)
		}
	}
	if answers.graphs != 1 {
		t.Errorf("graph method called %d times, want once", answers.graphs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceling := &keyRecorder{cancel: cancel}
	if _, err := f.opt.WithEstimator(canceling).enumerate(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("enumerate under a canceled context: %v", err)
	}
	if !reflect.DeepEqual(canceling.keys, want[:64]) {
		t.Errorf("a canceled DP asked about %d masks, want the 64 before its check on mask 64", len(canceling.keys))
	}
}
