package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lqo/internal/data"
)

// The oracles below are the map-and-string implementations the mask index
// replaced, kept here as the reference the index is generated against.

func oracleSubquery(q *Query, aliases map[string]bool) *Query {
	sub := &Query{}
	for _, r := range q.Refs {
		if aliases[r.Alias] {
			sub.Refs = append(sub.Refs, r)
		}
	}
	for _, j := range q.Joins {
		if aliases[j.LeftAlias] && aliases[j.RightAlias] {
			sub.Joins = append(sub.Joins, j)
		}
	}
	for _, p := range q.Preds {
		if aliases[p.Alias] {
			sub.Preds = append(sub.Preds, p)
		}
	}
	return sub
}

// oracleKey encodes a query's key clause by clause, one KeyBuilder each.
func oracleKey(q *Query) string {
	refs := make([]string, len(q.Refs))
	for i, r := range q.Refs {
		var kb KeyBuilder
		kb.Raw("r(").Atom(r.Alias).Raw(":").Atom(r.Table).Raw(")")
		refs[i] = kb.String()
	}
	sort.Strings(refs)
	joins := make([]string, len(q.Joins))
	for i, j := range q.Joins {
		if j.LeftAlias > j.RightAlias || (j.LeftAlias == j.RightAlias && j.LeftCol > j.RightCol) {
			j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol = j.RightAlias, j.RightCol, j.LeftAlias, j.LeftCol
		}
		joins[i] = j.KeyString()
	}
	sort.Strings(joins)
	preds := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		preds[i] = p.KeyString()
	}
	sort.Strings(preds)
	var k KeyBuilder
	for _, s := range refs {
		k.Append(s)
	}
	k.Raw("|")
	for _, s := range joins {
		k.Append(s)
	}
	k.Raw("|")
	for _, s := range preds {
		k.Append(s)
	}
	return k.String()
}

func oracleAdj(q *Query) map[string][]Join {
	adj := map[string][]Join{}
	for _, j := range q.Joins {
		adj[j.LeftAlias] = append(adj[j.LeftAlias], j)
		adj[j.RightAlias] = append(adj[j.RightAlias], j)
	}
	return adj
}

func oracleConnected(adj map[string][]Join, set map[string]bool) bool {
	if len(set) == 0 {
		return false
	}
	var start string
	for a := range set {
		start = a
		break
	}
	seen := map[string]bool{start: true}
	stack := []string{start}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range adj[a] {
			if o := j.Other(a); o != "" && set[o] && !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	return len(seen) == len(set)
}

func oracleJoinsBetween(adj map[string][]Join, left, right map[string]bool) []Join {
	var out []Join
	seen := map[string]bool{}
	for a := range left {
		for _, j := range adj[a] {
			o := j.Other(a)
			if o == "" || !right[o] {
				continue
			}
			if k := j.String(); !seen[k] {
				seen[k] = true
				out = append(out, j)
			}
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].String() < out[k].String() })
	return out
}

// names are identifiers that would break a delimiter-joined key: the
// bytes KeyBuilder and the old key formats use as structure, and digits
// that read as length prefixes.
var names = []string{"a", "b|1", "c:2", "d)3", "7", "e(", "1:a", "j(x", "p|", "r(a:b)", "12", "k,v", "?1", "&"}

// identifier makes s safe for the oracle: Join.String() separates alias
// and column with "." and sides with " = ", so names containing those
// could make two different edges render alike, and the old JoinsBetween
// kept whichever its map iteration met first.
//
// The empty string is excluded too: Join.Other answers "" for "does not
// touch", which the old code could not tell from an alias named "".
func identifier(s string) string {
	if s == "" {
		return "_"
	}
	return strings.NewReplacer(".", "_", " ", "_", "=", "_").Replace(s)
}

// genQuery builds a random query: distinct aliases drawn from pool over
// few tables (so self-joins occur), join edges that include duplicates,
// reversed duplicates and single-alias edges, and predicates of every
// operator kind.
func genQuery(rng *rand.Rand, pool []string) *Query {
	q := &Query{}
	n := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		alias := identifier(pool[rng.Intn(len(pool))])
		for q.TableOf(alias) != "" {
			alias += fmt.Sprint(i)
		}
		q.Refs = append(q.Refs, TableRef{Alias: alias, Table: identifier(pool[rng.Intn(3)%len(pool)])})
	}
	col := func() string { return identifier(pool[rng.Intn(len(pool))]) }
	for i, m := 0, rng.Intn(2*n+1); i < m; i++ {
		switch {
		case len(q.Joins) > 0 && rng.Intn(4) == 0:
			j := q.Joins[rng.Intn(len(q.Joins))]
			if rng.Intn(2) == 0 {
				j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol = j.RightAlias, j.RightCol, j.LeftAlias, j.LeftCol
			}
			q.Joins = append(q.Joins, j)
		default:
			q.Joins = append(q.Joins, Join{
				LeftAlias: q.Refs[rng.Intn(n)].Alias, LeftCol: col(),
				RightAlias: q.Refs[rng.Intn(n)].Alias, RightCol: col(),
			})
		}
	}
	for i, m := 0, rng.Intn(6); i < m; i++ {
		p := Pred{Alias: q.Refs[rng.Intn(n)].Alias, Column: col(), Op: CmpOp(rng.Intn(int(Between) + 1))}
		if len(q.Preds) > 0 && rng.Intn(3) == 0 { // same alias.column op, another value
			p = q.Preds[rng.Intn(len(q.Preds))]
		}
		p.Val = data.IntVal(int64(rng.Intn(2000) - 1000))
		if rng.Intn(3) == 0 {
			p.Val = data.FloatVal(float64(rng.Intn(40)) / 4)
		}
		if p.Op == Between {
			p.Val2 = data.IntVal(p.Val.I + int64(rng.Intn(50)))
		}
		q.Preds = append(q.Preds, p)
	}
	return q
}

// redraw returns q with every predicate's values drawn again, the shape
// kept: what binding a template changes. A value is a placeholder, an int,
// a fractional float or an integral float that renders like an int (1e6
// vs 1000000), from a small set so that predicates sharing an
// alias.column op tie as often as they differ.
func redraw(rng *rand.Rand, q *Query) *Query {
	b := q.Clone()
	draw := func() (data.Value, int) {
		switch rng.Intn(4) {
		case 0:
			return data.Value{}, 1 + rng.Intn(3)
		case 1:
			return data.IntVal([]int64{-3, 7, 1000000}[rng.Intn(3)]), 0
		case 2:
			return data.FloatVal([]float64{2.5, 7, 1e6}[rng.Intn(3)]), 0
		}
		return data.IntVal(int64(rng.Intn(20))), 0
	}
	for i := range b.Preds {
		p := &b.Preds[i]
		p.Val, p.Param = draw()
		if p.Op == Between {
			p.Val2, p.Param2 = draw()
		}
	}
	return b
}

// checkGraph compares the mask index of q against the oracles on every
// mask and every ordered pair of masks, then rebinds it through a chain
// of redrawn bindings against graphs built from scratch.
func checkGraph(t *testing.T, rng *rand.Rand, q *Query) {
	t.Helper()
	g, adj := NewJoinGraph(q), oracleAdj(q)
	n := len(q.Refs)
	sets := make([]map[string]bool, 1<<uint(n))
	for mask := range sets {
		sets[mask] = map[string]bool{}
		for i, a := range g.Aliases {
			if mask&(1<<uint(i)) != 0 {
				sets[mask][a] = true
			}
		}
	}
	for m, set := range sets {
		mask := uint64(m)
		if got := g.Mask(set); got != mask {
			t.Fatalf("Mask(%v) = %b, want %b\n%s", set, got, mask, q.SQL())
		}
		want := oracleSubquery(q, set)
		sub := g.Sub(mask)
		if !reflect.DeepEqual(sub.Refs, want.Refs) || !reflect.DeepEqual(sub.Joins, want.Joins) || !reflect.DeepEqual(sub.Preds, want.Preds) {
			t.Fatalf("Sub(%b) = %+v, want %+v\n%s", mask, sub, want, q.SQL())
		}
		key := oracleKey(want)
		if sub.Key() != key || g.Key(mask) != key {
			t.Fatalf("mask %b: cached key %q, graph key %q, from scratch %q\n%s", mask, sub.Key(), g.Key(mask), key, q.SQL())
		}
		adapted := q.Subquery(set)
		if !reflect.DeepEqual(adapted, want) {
			t.Fatalf("Subquery(%v) = %+v, want %+v", set, adapted, want)
		}
		if adapted.Key() != key {
			t.Fatalf("Subquery(%v).Key() = %q, want %q", set, adapted.Key(), key)
		}
		if got, want := g.ConnectedMask(mask), oracleConnected(adj, set); got != want || g.Connected(set) != want {
			t.Fatalf("Connected(%v) = %v, want %v\n%s", set, got, want, q.SQL())
		}
		for o, other := range sets {
			want := oracleJoinsBetween(adj, set, other)
			got := g.JoinsBetweenMasks(mask, uint64(o))
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(g.JoinsBetween(set, other), want) {
				t.Fatalf("JoinsBetween(%v, %v) = %v, want %v\n%s", set, other, got, want, q.SQL())
			}
			if c := g.CountBetween(mask, uint64(o)); c != len(want) {
				t.Fatalf("CountBetween(%v, %v) = %d, want %d", set, other, c, len(want))
			}
		}
		for i, a := range g.Aliases {
			connects := false
			for _, j := range q.Joins {
				if o := j.Other(a); o != "" && set[o] {
					connects = true
				}
			}
			if got := g.ConnectsTo(a, set); got != connects {
				t.Fatalf("ConnectsTo(%s, %v) = %v, want %v (alias %d)\n%s", a, set, got, connects, i, q.SQL())
			}
		}
	}
	if full := g.Key(uint64(len(sets) - 1)); full != q.Key() || full != oracleKey(q) {
		t.Fatalf("full-mask key %q, Query.Key %q, oracle %q", full, q.Key(), oracleKey(q))
	}
	for round := 0; round < 3; round++ {
		b := redraw(rng, q)
		rebound, fresh := g.Rebind(b), NewJoinGraph(b)
		for m := range sets {
			mask := uint64(m)
			if got, want := rebound.Key(mask), fresh.Key(mask); got != want {
				t.Fatalf("round %d mask %b: rebound key %q, built %q\n%s\nrebound from\n%s", round, mask, got, want, b.SQL(), g.Query().SQL())
			}
			if got := string(rebound.AppendKey(nil, mask)); got != rebound.Key(mask) {
				t.Fatalf("round %d mask %b: AppendKey %q, Key %q", round, mask, got, rebound.Key(mask))
			}
		}
		g = rebound
	}
}

func TestGraphMatchesMapOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(20240614))
	for i := 0; i < 150; i++ {
		checkGraph(t, rng, genQuery(rng, names))
	}
}

// FuzzSubqueryKey lets the fuzzer choose the identifiers as well as the
// shape: whatever bytes aliases, tables and columns contain, every
// sub-query's precomputed key, and every rebound graph's key, must equal
// the from-scratch encoding.
func FuzzSubqueryKey(f *testing.F) {
	f.Add(int64(1), "a", "b|1", "c:2")
	f.Add(int64(2), "r(1:a:1:a)", "3:a|b", ")")
	f.Add(int64(3), "", "0", "j(")
	f.Fuzz(func(t *testing.T, seed int64, a, b, c string) {
		rng := rand.New(rand.NewSource(seed))
		checkGraph(t, rng, genQuery(rng, []string{a, b, c}))
	})
}

// TestSubqueryKeyNotInherited pins where the precomputed key may live:
// on the graph's own sub-queries, never on a clone a caller may mutate.
func TestSubqueryKeyNotInherited(t *testing.T) {
	q := starQuery(3)
	sub := NewJoinGraph(q).Sub(0b11)
	c := sub.Clone()
	c.Preds = append(c.Preds, Pred{Alias: "hub", Column: "id", Op: Eq, Val: data.IntVal(1)})
	if c.Key() == sub.Key() {
		t.Fatal("a mutated clone still answers with the sub-query's cached key")
	}
}
