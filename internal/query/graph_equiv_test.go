package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// oracleConnectedSubsets grows alias sets breadth-first by name, one
// neighbour at a time, deduplicating by the joined names; maxSize 0 is
// no limit.
func oracleConnectedSubsets(q *Query, maxSize int) [][]string {
	if maxSize == 0 {
		maxSize = len(q.Refs)
	}
	adj, declared := oracleAdj(q), q.Aliases()
	var out [][]string
	var frontier [][]string
	seen := map[string]bool{}
	for _, r := range q.Refs {
		out = append(out, []string{r.Alias})
		frontier = append(frontier, []string{r.Alias})
		seen[r.Alias] = true
	}
	for size := 2; size <= maxSize; size++ {
		var next [][]string
		for _, set := range frontier {
			for _, a := range set {
				for _, j := range adj[a] {
					nb := j.Other(a)
					if slices.Contains(set, nb) || !slices.Contains(declared, nb) {
						continue
					}
					grown := append(append([]string(nil), set...), nb)
					sort.Strings(grown)
					if k := strings.Join(grown, ","); !seen[k] {
						seen[k] = true
						next = append(next, grown)
						out = append(out, grown)
					}
				}
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
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
// mask and every ordered pair of masks (the join edges between them, and
// whether Nbr sees one) — Sub(mask) and the slab's Subs()[mask] alike,
// nil slices and capacities included — then rebinds it through a chain
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
	subs := g.Subs()
	if len(subs) != len(sets) {
		t.Fatalf("Subs() has %d queries, want one per mask (%d)", len(subs), len(sets))
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
		if slab := &subs[mask]; !reflect.DeepEqual(slab, sub) || slab.Key() != key {
			t.Fatalf("Subs()[%b] = %+v key %q, Sub = %+v key %q\n%s", mask, slab, slab.Key(), sub, key, q.SQL())
		}
		for _, s := range []*Query{sub, &subs[mask]} {
			if cap(s.Refs) != len(s.Refs) || cap(s.Joins) != len(s.Joins) || cap(s.Preds) != len(s.Preds) {
				t.Fatalf("mask %b: a clause slice has spare capacity: refs %d/%d joins %d/%d preds %d/%d", mask,
					len(s.Refs), cap(s.Refs), len(s.Joins), cap(s.Joins), len(s.Preds), cap(s.Preds))
			}
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
			if joined := g.Nbr(mask)&uint64(o) != 0; joined != (len(want) > 0) {
				t.Fatalf("Nbr(%v) meets %v: %v, but %d join edges between them", set, other, joined, len(want))
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
	for _, size := range []int{0, 2} {
		if got, want := g.ConnectedSubsets(size), oracleConnectedSubsets(q, size); !reflect.DeepEqual(got, want) {
			t.Fatalf("ConnectedSubsets(%d) = %v, oracle %v\n%s", size, got, want, q.SQL())
		}
	}
	if full := g.Key(uint64(len(sets) - 1)); full != q.Key() || full != oracleKey(q) {
		t.Fatalf("full-mask key %q, Query.Key %q, oracle %q", full, q.Key(), oracleKey(q))
	}
	hashes := map[string]uint64{}
	checkKeyHashes(t, g, hashes)
	checkKeyHashes(t, NewJoinGraph(shuffled(rng, q)), hashes)
	for round := 0; round < 3; round++ {
		b := redraw(rng, q)
		rebound, fresh := g.Rebind(b), NewJoinGraph(b)
		checkKeyHashes(t, rebound, hashes)
		rsubs := rebound.Subs()
		for m := range sets {
			mask := uint64(m)
			if !reflect.DeepEqual(&rsubs[mask], fresh.Sub(mask)) {
				t.Fatalf("round %d: rebound Subs()[%b] = %+v, built %+v", round, mask, &rsubs[mask], fresh.Sub(mask))
			}
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

// checkKeyHashes checks g's key hashes: the all-masks pass equals
// KeyHash on every mask, which equals the full-mask hash of the
// sub-query's own graph, and a key seen before, in hashes, has the hash
// it had then.
func checkKeyHashes(t *testing.T, g *JoinGraph, hashes map[string]uint64) {
	t.Helper()
	all := make([]uint64, 1<<uint(len(g.Aliases)))
	g.KeyHashes(all)
	for m, h := range all {
		mask := uint64(m)
		key := g.Key(mask)
		if one := g.KeyHash(mask); one != h {
			t.Fatalf("mask %b: KeyHashes %x, KeyHash %x\n%s", mask, h, one, g.Query().SQL())
		}
		sub := NewJoinGraph(g.Sub(mask))
		if own := sub.KeyHash(uint64(1)<<uint(len(sub.Aliases)) - 1); own != h {
			t.Fatalf("mask %b: hash %x, the sub-query's own graph %x\n%s", mask, h, own, g.Query().SQL())
		}
		if seen, ok := hashes[key]; ok && seen != h {
			t.Fatalf("key %q hashes %x and %x", key, seen, h)
		}
		hashes[key] = h
	}
}

// shuffled returns q with its refs, joins and predicates in another
// order and some join sides swapped: the same query, under the same keys,
// with other alias bits.
func shuffled(rng *rand.Rand, q *Query) *Query {
	s := q.Clone()
	rng.Shuffle(len(s.Refs), func(i, j int) { s.Refs[i], s.Refs[j] = s.Refs[j], s.Refs[i] })
	rng.Shuffle(len(s.Joins), func(i, j int) { s.Joins[i], s.Joins[j] = s.Joins[j], s.Joins[i] })
	rng.Shuffle(len(s.Preds), func(i, j int) { s.Preds[i], s.Preds[j] = s.Preds[j], s.Preds[i] })
	for i, j := range s.Joins {
		if rng.Intn(2) == 0 {
			s.Joins[i] = Join{LeftAlias: j.RightAlias, LeftCol: j.RightCol, RightAlias: j.LeftAlias, RightCol: j.LeftCol}
		}
	}
	return s
}

func TestGraphMatchesMapOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(20240614))
	for i := 0; i < 150; i++ {
		checkGraph(t, rng, genQuery(rng, names))
	}
}

// TestConnectedSubsetsWide checks the enumeration on graphs too wide to
// walk every mask of: random trees of 24 aliases plus a few extra edges.
func TestConnectedSubsetsWide(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for round := 0; round < 4; round++ {
		q := &Query{}
		for i := 0; i < 24; i++ {
			a := fmt.Sprintf("t%d", i)
			q.Refs = append(q.Refs, TableRef{Alias: a, Table: a})
			if i > 0 {
				q.Joins = append(q.Joins, Join{LeftAlias: fmt.Sprintf("t%d", rng.Intn(i)), LeftCol: "id", RightAlias: a, RightCol: "fk"})
			}
		}
		for e := 0; e < 3; e++ {
			q.Joins = append(q.Joins, Join{LeftAlias: fmt.Sprintf("t%d", rng.Intn(24)), LeftCol: "x", RightAlias: fmt.Sprintf("t%d", rng.Intn(24)), RightCol: "x"})
		}
		if got, want := NewJoinGraph(q).ConnectedSubsets(4), oracleConnectedSubsets(q, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: %d subsets, oracle %d\n%s", round, len(got), len(want), q.SQL())
		}
	}
}

// FuzzSubqueryKey lets the fuzzer choose the identifiers as well as the
// shape: whatever bytes aliases, tables and columns contain, every
// sub-query's precomputed key — Sub's and the Subs slab's — and every
// rebound graph's key, must equal the from-scratch encoding, and equal
// keys — of the query, its clauses reordered and its rebindings — must
// have equal key hashes.
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
