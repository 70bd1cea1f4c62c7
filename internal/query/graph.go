package query

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// MaxRefs is the largest FROM list a JoinGraph can index: alias sets are
// uint64 bitmasks. Planning entry points reject larger queries.
const MaxRefs = 64

// JoinGraph is the per-query index the planner's combinatorial core runs
// on: the undirected graph whose vertices are query aliases and whose
// edges are equi-join conditions, with alias sets represented as uint64
// masks (bit i is Aliases[i]). Everything a sub-query of the indexed
// query needs — its clauses, its join edges towards another alias set,
// its canonical key — is precomputed per clause at construction, so the
// per-mask operations are loops over small slices with no maps, no
// sorting and no formatting. A JoinGraph is immutable once built; it
// must not outlive a mutation of the query it indexes.
type JoinGraph struct {
	Aliases []string

	q     *Query
	adj   []uint64    // adj[i]: aliases sharing a join edge with Aliases[i]
	edges []graphEdge // distinct join edges, sorted by Join.String()

	refs, joins, preds clauseIndex
}

// graphEdge is a join edge with its SQL rendering (the sort key) and the
// alias bit of each side.
type graphEdge struct {
	j    Join
	name string
	l, r uint64
}

// clauseIndex is what the graph knows about one clause list of the query
// (Refs, Joins or Preds), indexed like the list itself.
type clauseIndex struct {
	need  []uint64 // alias bits a sub-query must cover to keep the clause; 0: references an undeclared alias, never kept
	seg   []string // the clause's Query.Key segment
	order []int    // clause positions sorted by seg
}

// in reports whether clause i belongs to the sub-query over mask.
func (c *clauseIndex) in(i int, mask uint64) bool {
	return c.need[i] != 0 && c.need[i]&^mask == 0
}

// NewJoinGraph indexes q. Refs past MaxRefs get no bit: no mask can name
// them, so callers that plan must check len(q.Refs) first.
func NewJoinGraph(q *Query) *JoinGraph {
	g := &JoinGraph{Aliases: q.Aliases(), q: q, adj: make([]uint64, len(q.Refs)), edges: make([]graphEdge, 0, len(q.Joins))}
	refSegs, joinSegs, predSegs := q.keySegments()
	nr, nj, np := len(refSegs), len(joinSegs), len(predSegs)
	need, order := make([]uint64, nr+nj+np), make([]int, nr+nj+np)
	g.refs = newClauseIndex(refSegs, need[:nr], order[:nr])
	g.joins = newClauseIndex(joinSegs, need[nr:nr+nj], order[nr:nr+nj])
	g.preds = newClauseIndex(predSegs, need[nr+nj:], order[nr+nj:])
	for i, r := range q.Refs {
		g.refs.need[i] = g.Bit(r.Alias) // the first ref's bit when an alias repeats
	}
	for i, p := range q.Preds {
		g.preds.need[i] = g.Bit(p.Alias)
	}
	for i, j := range q.Joins {
		l, r := g.Bit(j.LeftAlias), g.Bit(j.RightAlias)
		if l == 0 || r == 0 {
			continue
		}
		g.joins.need[i] = l | r
		g.adj[bits.TrailingZeros64(l)] |= r
		g.adj[bits.TrailingZeros64(r)] |= l
		g.edges = append(g.edges, graphEdge{j: j, name: j.String(), l: l, r: r})
	}
	// Sorted and deduplicated by rendering here, once, so that no
	// JoinsBetween call has to.
	slices.SortStableFunc(g.edges, func(a, b graphEdge) int { return strings.Compare(a.name, b.name) })
	distinct := g.edges[:0]
	for _, e := range g.edges {
		if len(distinct) == 0 || e.name != distinct[len(distinct)-1].name {
			distinct = append(distinct, e)
		}
	}
	g.edges = distinct
	return g
}

// Rebind returns the graph of q, which must be g's query with only
// predicate values and Param/Param2 changed, such as a binding of the
// template g indexes. It shares g's aliases, adjacency, join edges, ref
// and join indexes and predicate alias bits, and encodes only the
// predicate segments again. Their order is sorted again, not copied:
// predicates on one column with one operator sort by value, and a "?"
// marker sorts after a bound literal's digits. g is only read.
func (g *JoinGraph) Rebind(q *Query) *JoinGraph {
	r := *g
	r.q = q
	var k KeyBuilder
	k.Grow(40 * len(q.Preds))
	order := make([]int, len(q.Preds)) // segment ends until newClauseIndex
	for i, p := range q.Preds {
		p.appendKey(&k)
		order[i] = k.Len()
	}
	r.preds = newClauseIndex(splitSegments(&k, order), g.preds.need, order)
	return &r
}

func newClauseIndex(segs []string, need []uint64, order []int) clauseIndex {
	c := clauseIndex{need: need, seg: segs, order: order}
	for i := range c.order {
		c.order[i] = i
	}
	slices.SortFunc(c.order, func(a, b int) int { return strings.Compare(segs[a], segs[b]) })
	return c
}

// Query returns the query the graph indexes.
func (g *JoinGraph) Query() *Query { return g.q }

// ClauseBits returns, for each of Query().Refs and of Query().Joins in
// order, the alias bits a sub-query's mask must hold to keep the clause;
// 0 for a clause no mask keeps (past MaxRefs, or naming an undeclared
// alias). The slices are the graph's own and must not be written.
func (g *JoinGraph) ClauseBits() (refs, joins []uint64) { return g.refs.need, g.joins.need }

// Bit returns the mask bit of alias, or 0 when the query does not declare
// it (or declares it past MaxRefs).
func (g *JoinGraph) Bit(alias string) uint64 {
	for i, a := range g.Aliases {
		if a == alias {
			return uint64(1) << uint(i) // 0 for i >= 64
		}
	}
	return 0
}

// Mask converts an alias set into its bitmask; undeclared aliases drop out.
func (g *JoinGraph) Mask(set map[string]bool) uint64 {
	var m uint64
	for i, a := range g.Aliases {
		if set[a] {
			m |= g.refs.need[i]
		}
	}
	return m
}

// Edges returns the join edges incident to alias, in query order.
func (g *JoinGraph) Edges(alias string) []Join {
	var out []Join
	for _, j := range g.q.Joins {
		if j.LeftAlias == alias {
			out = append(out, j)
		}
		if j.RightAlias == alias {
			out = append(out, j)
		}
	}
	return out
}

// Neighbors returns the sorted distinct neighbor aliases of alias.
func (g *JoinGraph) Neighbors(alias string) []string {
	b := g.Bit(alias)
	if b == 0 {
		return []string{}
	}
	nb := g.adj[bits.TrailingZeros64(b)]
	out := make([]string, 0, bits.OnesCount64(nb))
	for ; nb != 0; nb &= nb - 1 {
		out = append(out, g.Aliases[bits.TrailingZeros64(nb)])
	}
	sort.Strings(out)
	return out
}

// ConnectedMask reports whether the aliases in mask induce a connected
// subgraph. Singletons are connected; the empty mask is not.
func (g *JoinGraph) ConnectedMask(mask uint64) bool {
	if mask == 0 {
		return false
	}
	seen := mask & -mask
	for frontier := seen; frontier != 0; {
		frontier = g.Nbr(frontier) & mask &^ seen
		seen |= frontier
	}
	return seen == mask
}

// Connected is ConnectedMask over an alias set.
func (g *JoinGraph) Connected(set map[string]bool) bool {
	return g.ConnectedMask(g.Mask(set))
}

// ConnectsTo reports whether any join edge links alias to a member of set.
func (g *JoinGraph) ConnectsTo(alias string, set map[string]bool) bool {
	b := g.Bit(alias)
	return b != 0 && g.adj[bits.TrailingZeros64(b)]&g.Mask(set) != 0
}

// between reports whether e has one side in left and the other in right.
func (e *graphEdge) between(left, right uint64) bool {
	return (e.l&left != 0 && e.r&right != 0) || (e.r&left != 0 && e.l&right != 0)
}

// Nbr returns the aliases that share a join edge with some alias of
// mask, members of mask included when they join each other: two disjoint
// alias sets are joined by an edge iff Nbr(left)&right != 0.
func (g *JoinGraph) Nbr(mask uint64) uint64 {
	var nb uint64
	for ; mask != 0; mask &= mask - 1 {
		nb |= g.adj[bits.TrailingZeros64(mask)]
	}
	return nb
}

// JoinsBetweenMasks returns the distinct join edges with one side in left
// and the other in right, ordered by Join.String().
func (g *JoinGraph) JoinsBetweenMasks(left, right uint64) []Join {
	var out []Join
	for i := range g.edges {
		if g.edges[i].between(left, right) {
			out = append(out, g.edges[i].j)
		}
	}
	return out
}

// JoinsBetween is JoinsBetweenMasks over alias sets.
func (g *JoinGraph) JoinsBetween(left, right map[string]bool) []Join {
	return g.JoinsBetweenMasks(g.Mask(left), g.Mask(right))
}

// Subs returns the sub-query over every mask of the graph's aliases,
// indexed by mask (Subs()[0] is the empty query): Sub for all 2^n masks
// at once. They share one backing array each for refs, joins and preds
// and one key string that every key slices, so the whole set costs five
// allocations whatever n is. Every clause slice is capped (len == cap),
// so an append to one cannot write into its neighbour. The queries must
// be treated as read-only, like Sub's; a key kept past the slab's life
// pins the whole key string. Only for graphs small enough to enumerate.
func (g *JoinGraph) Subs() []Query { return g.subs(0, 1<<uint(len(g.Aliases))) }

// Sub returns the sub-query over mask (see Query.Subquery) carrying its
// precomputed canonical key, so Key() on it costs nothing. The result
// must be treated as read-only: mutating it would leave the key stale.
func (g *JoinGraph) Sub(mask uint64) *Query { return &g.subs(mask, mask+1)[0] }

// subs builds the sub-queries over masks lo..hi-1, out[i] over lo+i:
// refs in the mask, joins fully contained in it and predicates on it,
// each in query order, and the key. Every slab is sized exactly first.
func (g *JoinGraph) subs(lo, hi uint64) []Query {
	var nr, nj, np, nk int
	for m := lo; m < hi; m++ {
		nr += g.refs.count(m)
		nj += g.joins.count(m)
		np += g.preds.count(m)
		nk += g.keyLen(m)
	}
	out := make([]Query, hi-lo)
	refs, joins, preds := make([]TableRef, 0, nr), make([]Join, 0, nj), make([]Pred, 0, np)
	var k KeyBuilder
	k.Grow(nk)
	for i := range out {
		m, q := lo+uint64(i), &out[i]
		q.Refs, refs = cut(&g.refs, g.q.Refs, m, refs)
		q.Joins, joins = cut(&g.joins, g.q.Joins, m, joins)
		q.Preds, preds = cut(&g.preds, g.q.Preds, m, preds)
		start := k.Len()
		g.writeKey(&k, m)
		q.key = k.String()[start:] // k never outgrows nk: earlier keys stay valid
	}
	return out
}

// count returns how many clauses belong to the sub-query over mask.
func (c *clauseIndex) count(mask uint64) int {
	n := 0
	for i := range c.need {
		if c.in(i, mask) {
			n++
		}
	}
	return n
}

// cut appends to slab the clauses of all that belong to the sub-query
// over mask and returns them, capped (nil when none), and the grown slab.
func cut[T any](c *clauseIndex, all []T, mask uint64, slab []T) (sub, grown []T) {
	start := len(slab)
	for i, x := range all {
		if c.in(i, mask) {
			slab = append(slab, x)
		}
	}
	if len(slab) == start {
		return nil, slab
	}
	return slab[start:len(slab):len(slab)], slab
}

// writeKey writes Key(mask) to k: the segments of the refs, joins and
// predicates over mask, each list in its sorted order, with a "|" between
// the lists. The segments were encoded and sorted once at construction,
// and a subset of a sorted list is sorted.
func (g *JoinGraph) writeKey(k *KeyBuilder, mask uint64) {
	for n, c := range [...]*clauseIndex{&g.refs, &g.joins, &g.preds} {
		if n > 0 {
			k.Raw("|")
		}
		for _, i := range c.order {
			if c.in(i, mask) {
				k.Append(c.seg[i])
			}
		}
	}
}

// keyLen returns len(Key(mask)).
func (g *JoinGraph) keyLen(mask uint64) int {
	n := 2
	for _, c := range [...]*clauseIndex{&g.refs, &g.joins, &g.preds} {
		for i, s := range c.seg {
			if c.in(i, mask) {
				n += len(s)
			}
		}
	}
	return n
}

// Key returns Sub(mask).Key() without building the sub-query: one
// pre-sized concatenation.
func (g *JoinGraph) Key(mask uint64) string {
	var k KeyBuilder
	k.Grow(g.keyLen(mask))
	g.writeKey(&k, mask)
	return k.String()
}

// AppendKey appends Key(mask) to dst and returns the extended buffer, so
// a caller that derives many keys can reuse one buffer and make a string
// only of a key it keeps. It is writeKey over bytes, kept separate so
// the hit path's harvest calls no function per segment.
func (g *JoinGraph) AppendKey(dst []byte, mask uint64) []byte {
	for n, c := range [...]*clauseIndex{&g.refs, &g.joins, &g.preds} {
		if n > 0 {
			dst = append(dst, '|')
		}
		for _, i := range c.order {
			if c.in(i, mask) {
				dst = append(dst, c.seg[i]...)
			}
		}
	}
	return dst
}

// QueryKey returns Query().Key(), read off the graph's segments unless
// some clause has no bit (a ref past MaxRefs, an undeclared alias).
func (g *JoinGraph) QueryKey() string {
	if slices.Contains(g.refs.need, 0) || slices.Contains(g.joins.need, 0) || slices.Contains(g.preds.need, 0) {
		return g.q.Key()
	}
	return g.Key(uint64(1)<<uint(len(g.Aliases)) - 1)
}

// segSeed seeds the segment hashes: a key hash never leaves the process,
// and it only tells which keys are worth comparing.
var segSeed = maphash.MakeSeed()

// KeyHash returns a hash of Key(mask) that depends on that key alone: the
// sum of its segments' hashes. A segment's first byte names its section,
// so the key fixes the multiset of segments and the multiset fixes the
// key, and a sum needs no order.
func (g *JoinGraph) KeyHash(mask uint64) uint64 {
	var h uint64
	for _, c := range [...]*clauseIndex{&g.refs, &g.joins, &g.preds} {
		for i, s := range c.seg {
			if c.in(i, mask) {
				h += maphash.String(segSeed, s)
			}
		}
	}
	return h
}

// KeyHashes sets hs[m] to KeyHash(m) for every mask; len(hs) must be
// 1<<len(Aliases). Each segment's hash lands on the mask its clause
// needs, and a pass per alias bit sums every mask's subsets into it.
func (g *JoinGraph) KeyHashes(hs []uint64) {
	clear(hs)
	for _, c := range [...]*clauseIndex{&g.refs, &g.joins, &g.preds} {
		for i, s := range c.seg {
			if c.need[i] != 0 {
				hs[c.need[i]] += maphash.String(segSeed, s)
			}
		}
	}
	for b := 1; b < len(hs); b <<= 1 {
		for m := b; m < len(hs); m = (m + 1) | b {
			hs[m] += hs[m^b]
		}
	}
}

// ConnectedSubsets enumerates all connected alias subsets of size 1..maxSize
// (0 means no limit). Each subset is returned as a sorted slice, ordered
// by size and then by comma-joined names. Sets grow from single aliases
// one join neighbour at a time, so the work follows the number of
// connected subsets, not 2^n. Aliases past MaxRefs have no bit and are
// left out.
func (g *JoinGraph) ConnectedSubsets(maxSize int) [][]string {
	n := min(len(g.Aliases), MaxRefs)
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	var all, level []uint64
	for i := 0; i < n; i++ {
		level = append(level, 1<<uint(i))
	}
	seen := map[uint64]bool{}
	for size := 1; size <= maxSize && len(level) > 0; size++ {
		all = append(all, level...)
		var next []uint64
		for _, set := range level {
			for nb := g.Nbr(set) &^ set; nb != 0; nb &= nb - 1 {
				if grown := set | nb&-nb; !seen[grown] {
					seen[grown] = true
					next = append(next, grown)
				}
			}
		}
		level = next
	}
	out := make([][]string, len(all))
	for i, m := range all {
		for ; m != 0; m &= m - 1 {
			out[i] = append(out[i], g.Aliases[bits.TrailingZeros64(m)])
		}
		sort.Strings(out[i])
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
}

// SetOf converts an alias slice into a set.
func SetOf(aliases []string) map[string]bool {
	s := make(map[string]bool, len(aliases))
	for _, a := range aliases {
		s[a] = true
	}
	return s
}
