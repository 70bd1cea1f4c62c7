package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lqo/internal/data"
)

func starQuery(n int) *Query {
	q := &Query{Refs: []TableRef{{Alias: "hub", Table: "hub"}}}
	for i := 0; i < n; i++ {
		a := string(rune('a' + i))
		q.Refs = append(q.Refs, TableRef{Alias: a, Table: a})
		q.Joins = append(q.Joins, Join{LeftAlias: "hub", LeftCol: "id", RightAlias: a, RightCol: "hub_id"})
	}
	return q
}

func TestConnectedSubsetsMaxSize(t *testing.T) {
	q := starQuery(4) // 5 vertices
	g := NewJoinGraph(q)
	subs := g.ConnectedSubsets(2)
	for _, s := range subs {
		if len(s) > 2 {
			t.Fatalf("subset %v exceeds maxSize", s)
		}
	}
	// Star: 5 singletons + 4 hub-pairs = 9 subsets of size ≤ 2.
	if len(subs) != 9 {
		t.Fatalf("got %d subsets: %v", len(subs), subs)
	}
}

func TestConnectedSubsetsStarFull(t *testing.T) {
	q := starQuery(3) // hub + a,b,c
	g := NewJoinGraph(q)
	subs := g.ConnectedSubsets(0)
	// Every connected subset of a star must contain the hub unless it is a
	// singleton satellite.
	for _, s := range subs {
		if len(s) == 1 {
			continue
		}
		hasHub := false
		for _, a := range s {
			if a == "hub" {
				hasHub = true
			}
		}
		if !hasHub {
			t.Fatalf("connected multi-set without hub: %v", s)
		}
	}
	// Count: 4 singletons + C(3,1)+C(3,2)+C(3,3) hub-sets = 4 + 7 = 11.
	if len(subs) != 11 {
		t.Fatalf("got %d subsets", len(subs))
	}
}

func TestSubqueryPropertyContained(t *testing.T) {
	q := starQuery(4)
	q.Preds = []Pred{
		{Alias: "hub", Column: "id", Op: Gt, Val: data.IntVal(1)},
		{Alias: "a", Column: "hub_id", Op: Eq, Val: data.IntVal(2)},
	}
	err := quick.Check(func(mask uint8) bool {
		set := map[string]bool{}
		aliases := q.Aliases()
		for i, a := range aliases {
			if mask&(1<<uint(i%8)) != 0 {
				set[a] = true
			}
		}
		sub := q.Subquery(set)
		// Every ref/join/pred of the sub-query references only set members.
		for _, r := range sub.Refs {
			if !set[r.Alias] {
				return false
			}
		}
		for _, j := range sub.Joins {
			if !set[j.LeftAlias] || !set[j.RightAlias] {
				return false
			}
		}
		for _, p := range sub.Preds {
			if !set[p.Alias] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestKeyDistinguishesDifferentQueries(t *testing.T) {
	q1 := starQuery(2)
	q2 := starQuery(2)
	q2.Preds = []Pred{{Alias: "a", Column: "hub_id", Op: Eq, Val: data.IntVal(7)}}
	if q1.Key() == q2.Key() {
		t.Fatal("different queries share a Key")
	}
	q3 := starQuery(3)
	if q1.Key() == q3.Key() {
		t.Fatal("different table sets share a Key")
	}
}

// TestNewJoinGraphAllocations pins NewJoinGraph's allocations: constant
// in the join count, because adjacency and clause bits share one slab
// and every edge's rendering shares one buffer.
func TestNewJoinGraphAllocations(t *testing.T) {
	for joins := 1; joins <= 5; joins++ {
		q := starQuery(joins)
		q.Preds = []Pred{{Alias: "hub", Column: "score", Op: Gt, Val: data.IntVal(5)}, {Alias: "a", Column: "n", Op: Eq, Val: data.IntVal(2)}}
		got := testing.AllocsPerRun(100, func() { NewJoinGraph(q) })
		if got > 8 {
			t.Errorf("%d joins: NewJoinGraph allocates %.0f objects, ceiling 8", joins, got)
		}
		t.Logf("%d joins: %.0f allocations", joins, got)
	}
}

// TestJoinsBetweenOrderDigitsUnderscores checks the graph's edge order,
// rendered into one buffer, against the oracle's Join.String() sort on
// names whose digits and "_" sort among the rendering's ".", " " and "="
// bytes.
func TestJoinsBetweenOrderDigitsUnderscores(t *testing.T) {
	pool := []string{"t", "t_1", "t1", "t_10", "t10", "t1_0", "_", "a_", "a_b", "ab_1", "1", "10_", "_0"}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 150; i++ {
		checkGraph(t, rng, genQuery(rng, pool))
	}
}
