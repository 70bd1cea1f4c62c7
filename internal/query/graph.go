package query

import (
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
		var next uint64
		for f := frontier; f != 0; f &= f - 1 {
			next |= g.adj[bits.TrailingZeros64(f)]
		}
		frontier = next & mask &^ seen
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

// CountBetween returns how many distinct join edges have one side in left
// and the other in right — len(JoinsBetweenMasks) without building it.
func (g *JoinGraph) CountBetween(left, right uint64) int {
	n := 0
	for i := range g.edges {
		if g.edges[i].between(left, right) {
			n++
		}
	}
	return n
}

// JoinsBetweenMasks returns the distinct join edges with one side in left
// and the other in right, ordered by Join.String().
func (g *JoinGraph) JoinsBetweenMasks(left, right uint64) []Join {
	n := g.CountBetween(left, right)
	if n == 0 {
		return nil
	}
	out := make([]Join, 0, n)
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

// project builds the sub-query over mask without a key: refs in the mask,
// joins fully contained in it and predicates on it, each in query order.
func (g *JoinGraph) project(mask uint64) *Query {
	return &Query{
		Refs:  keep(&g.refs, g.q.Refs, mask),
		Joins: keep(&g.joins, g.q.Joins, mask),
		Preds: keep(&g.preds, g.q.Preds, mask),
	}
}

// keep returns the clauses of all that belong to the sub-query over mask,
// nil when none do.
func keep[T any](c *clauseIndex, all []T, mask uint64) []T {
	n := 0
	for i := range all {
		if c.in(i, mask) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for i, x := range all {
		if c.in(i, mask) {
			out = append(out, x)
		}
	}
	return out
}

// Sub returns the sub-query over mask (see Query.Subquery) carrying its
// precomputed canonical key, so Key() on it costs nothing. The result
// must be treated as read-only: mutating it would leave the key stale.
func (g *JoinGraph) Sub(mask uint64) *Query {
	sub := g.project(mask)
	sub.key = g.Key(mask)
	return sub
}

// Key returns Sub(mask).Key() without building the sub-query. The
// segments were encoded and sorted once at construction, and a subset of
// a sorted list is sorted, so this is one pre-sized concatenation.
func (g *JoinGraph) Key(mask uint64) string {
	size := 2
	for _, c := range [...]*clauseIndex{&g.refs, &g.joins, &g.preds} {
		for i, s := range c.seg {
			if c.in(i, mask) {
				size += len(s)
			}
		}
	}
	var k KeyBuilder
	k.Grow(size)
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
	return k.String()
}

// AppendKey appends Key(mask) to dst and returns the extended buffer, so
// a caller that derives many keys can reuse one buffer and make a string
// only of a key it keeps.
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

// ConnectedSubsets enumerates all connected alias subsets of size 1..maxSize
// (0 means no limit). Each subset is returned as a sorted slice. The
// enumeration order is deterministic.
func (g *JoinGraph) ConnectedSubsets(maxSize int) [][]string {
	n := len(g.Aliases)
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	var out [][]string
	if n > 20 {
		// Bitmask enumeration is infeasible; grow subsets by BFS expansion.
		return g.connectedSubsetsLarge(maxSize)
	}
	for mask := uint64(1); mask < 1<<uint(n); mask++ {
		size := bits.OnesCount64(mask)
		if size > maxSize || !g.ConnectedMask(mask) {
			continue
		}
		sub := make([]string, 0, size)
		for m := mask; m != 0; m &= m - 1 {
			sub = append(sub, g.Aliases[bits.TrailingZeros64(m)])
		}
		sort.Strings(sub)
		out = append(out, sub)
	}
	sortSubsets(out)
	return out
}

func (g *JoinGraph) connectedSubsetsLarge(maxSize int) [][]string {
	seen := map[string]bool{}
	var out [][]string
	frontier := make([]map[string]bool, 0, len(g.Aliases))
	for _, a := range g.Aliases {
		s := map[string]bool{a: true}
		frontier = append(frontier, s)
		out = append(out, []string{a})
		seen[a] = true
	}
	for size := 2; size <= maxSize; size++ {
		var next []map[string]bool
		for _, s := range frontier {
			for a := range s {
				for _, nb := range g.Neighbors(a) {
					if s[nb] {
						continue
					}
					grown := make(map[string]bool, len(s)+1)
					for k := range s {
						grown[k] = true
					}
					grown[nb] = true
					lst := setToSorted(grown)
					k := joinKey(lst)
					if seen[k] {
						continue
					}
					seen[k] = true
					next = append(next, grown)
					out = append(out, lst)
				}
			}
		}
		frontier = next
	}
	sortSubsets(out)
	return out
}

// sortSubsets orders subsets by size, then by their comma-joined names.
func sortSubsets(out [][]string) {
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return joinKey(out[i]) < joinKey(out[j])
	})
}

func setToSorted(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func joinKey(sorted []string) string {
	k := ""
	for i, s := range sorted {
		if i > 0 {
			k += ","
		}
		k += s
	}
	return k
}

// SetOf converts an alias slice into a set.
func SetOf(aliases []string) map[string]bool {
	s := make(map[string]bool, len(aliases))
	for _, a := range aliases {
		s[a] = true
	}
	return s
}
