package cardest

import (
	"math"
	"sort"

	"lqo/internal/data"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// FactorJoin [64] estimates join cardinalities by bucketizing join-key
// domains and summing per-bucket contributions, which captures the skewed
// key fan-out that the System-R 1/max(ndv) formula averages away. Per
// join edge a.x = b.y:
//
//	|A ⋈ B| ≈ Σ_b  nA(b) · nB(b) / max(dA(b), dB(b))
//
// where n(b) counts rows whose key falls in bucket b and d(b) counts
// distinct keys there (uniformity within a bucket). Filters scale each
// table's bucket counts by the table's filter selectivity; filters on the
// key column itself mask buckets exactly. Multi-way joins compose edge
// selectivities, each computed at bucket granularity.
type FactorJoin struct {
	cat     *data.Catalog
	cs      *stats.CatalogStats
	buckets map[ColKey]*keyBuckets
}

type keyBuckets struct {
	lo, width float64
	counts    []float64 // rows per bucket
	distinct  []float64 // distinct keys per bucket
}

// NewFactorJoin returns an untrained FactorJoin estimator.
func NewFactorJoin() *FactorJoin { return &FactorJoin{} }

// fjBuckets is the bucket count per join-key column.
const fjBuckets = 64

// Name implements Estimator.
func (e *FactorJoin) Name() string { return "factorjoin" }

// Train precomputes bucketed key distributions for every indexed (join
// candidate) column.
func (e *FactorJoin) Train(ctx *Context) error {
	e.cat = ctx.Cat
	e.cs = ctx.Stats
	e.buckets = make(map[ColKey]*keyBuckets)
	for _, tn := range ctx.Cat.TableNames() {
		t := ctx.Cat.Table(tn)
		for _, c := range t.Cols {
			if t.Index(c.Name) == nil {
				continue // only key-like columns participate in equi-joins
			}
			e.buckets[ColKey{tn, c.Name}] = e.bucketize(c)
		}
	}
	return nil
}

func (e *FactorJoin) bucketize(c *data.Column) *keyBuckets {
	lo, hi, ok := c.MinMax()
	kb := &keyBuckets{lo: lo, counts: make([]float64, fjBuckets), distinct: make([]float64, fjBuckets)}
	if !ok || hi <= lo {
		kb.width = 1
		kb.counts[0] = float64(c.Len())
		kb.distinct[0] = 1
		return kb
	}
	kb.width = (hi - lo) / float64(fjBuckets)
	seen := make(map[int64]int) // key → bucket marker for distinct counting
	n := c.Len()
	for i := 0; i < n; i++ {
		v := c.Float(i)
		b := kb.bucketOf(v)
		kb.counts[b]++
		k := c.Ints[i]
		if _, dup := seen[k]; !dup {
			seen[k] = b
			kb.distinct[b]++
		}
	}
	return kb
}

func (kb *keyBuckets) bucketOf(v float64) int {
	if kb.width <= 0 {
		return 0
	}
	b := int((v - kb.lo) / kb.width)
	if b < 0 {
		b = 0
	}
	if b >= len(kb.counts) {
		b = len(kb.counts) - 1
	}
	return b
}

// bucketRange returns the value range covered by bucket b.
func (kb *keyBuckets) bucketRange(b int) (float64, float64) {
	return kb.lo + float64(b)*kb.width, kb.lo + float64(b+1)*kb.width
}

// Estimate implements Estimator.
func (e *FactorJoin) Estimate(q *query.Query) float64 {
	// Filter selectivity per alias, excluding predicates on join keys
	// (those are applied at bucket granularity below).
	joinKeyCols := map[string]map[string]bool{} // alias → key columns used in joins
	for _, j := range q.Joins {
		addKey(joinKeyCols, j.LeftAlias, j.LeftCol)
		addKey(joinKeyCols, j.RightAlias, j.RightCol)
	}
	filterSel := func(alias string) float64 {
		ts := e.cs.Tables[q.TableOf(alias)]
		sel := 1.0
		for _, p := range q.PredsOn(alias) {
			if joinKeyCols[alias][p.Column] {
				continue
			}
			sel *= predSelectivity(ts, p)
		}
		return sel
	}

	card := 1.0
	for _, r := range q.Refs {
		ts := e.cs.Tables[r.Table]
		if ts == nil {
			return 0
		}
		card *= ts.Rows * filterSel(r.Alias)
	}
	// Join edges are grouped into key-equivalence classes (a star of
	// satellites on posts.id is ONE class); each class contributes a
	// multi-way bucket selectivity. Composing star edges independently
	// would multiply aligned per-bucket skew and overestimate badly.
	classes, leftover := e.keyClasses(q)
	for _, cls := range classes {
		card *= e.classSelectivity(q, cls)
	}
	for _, j := range leftover {
		card *= e.edgeSelectivity(q, j)
	}
	return clampCard(card, e.cat, q)
}

// endpoint is one (alias, column) participant of a join-key class.
type endpoint struct {
	alias, col string
}

// keyClasses unions join endpoints connected through equality into
// classes. Classes whose members all have bucketed distributions are
// returned for joint estimation; edges touching unbucketed columns fall
// back to per-edge handling.
func (e *FactorJoin) keyClasses(q *query.Query) ([][]endpoint, []query.Join) {
	parent := map[endpoint]endpoint{}
	var find func(x endpoint) endpoint
	find = func(x endpoint) endpoint {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b endpoint) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, j := range q.Joins {
		union(endpoint{j.LeftAlias, j.LeftCol}, endpoint{j.RightAlias, j.RightCol})
	}
	groups := map[endpoint][]endpoint{}
	for ep := range parent {
		root := find(ep)
		groups[root] = append(groups[root], ep)
	}
	var classes [][]endpoint
	var leftover []query.Join
	for _, members := range groups {
		ok := len(members) >= 2
		for _, m := range members {
			if _, has := e.buckets[ColKey{q.TableOf(m.alias), m.col}]; !has {
				ok = false
				break
			}
		}
		if ok {
			sortEndpoints(members)
			classes = append(classes, members)
			continue
		}
		// Recover this class's edges for per-edge fallback.
		for _, j := range q.Joins {
			if find(endpoint{j.LeftAlias, j.LeftCol}) == find(members[0]) {
				leftover = append(leftover, j)
			}
		}
	}
	sortClasses(classes)
	return classes, leftover
}

func sortEndpoints(eps []endpoint) {
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].alias != eps[j].alias {
			return eps[i].alias < eps[j].alias
		}
		return eps[i].col < eps[j].col
	})
}

func sortClasses(cls [][]endpoint) {
	sort.Slice(cls, func(i, j int) bool {
		return cls[i][0].alias+cls[i][0].col < cls[j][0].alias+cls[j][0].col
	})
}

// classSelectivity computes the k-way bucket join selectivity of one key
// class on a common grid:
//
//	sel = Σ_B  Π_i n_i(B) / maxd(B)^(k−1)  /  Π_i tot_i
//
// with per-member counts and distincts re-projected onto the shared grid
// and masked by key-column predicates.
func (e *FactorJoin) classSelectivity(q *query.Query, members []endpoint) float64 {
	k := len(members)
	// Common grid over the union of member domains.
	lo, hi := math.Inf(1), math.Inf(-1)
	kbs := make([]*keyBuckets, k)
	for i, m := range members {
		kb := e.buckets[ColKey{q.TableOf(m.alias), m.col}]
		kbs[i] = kb
		if kb.lo < lo {
			lo = kb.lo
		}
		if end := kb.lo + kb.width*float64(len(kb.counts)); end > hi {
			hi = end
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	grid := fjBuckets
	width := (hi - lo) / float64(grid)
	counts := make([][]float64, k)
	dists := make([][]float64, k)
	tots := make([]float64, k)
	for i, m := range members {
		kb := kbs[i]
		mask := e.keyMask(q, m.alias, m.col, kb)
		counts[i] = make([]float64, grid)
		dists[i] = make([]float64, grid)
		for b := 0; b < len(kb.counts); b++ {
			blo, bhi := kb.bucketRange(b)
			tots[i] += kb.counts[b]
			if kb.counts[b] == 0 && kb.distinct[b] == 0 {
				continue
			}
			// Spread this source bucket over the grid cells it overlaps.
			for g := 0; g < grid; g++ {
				glo := lo + float64(g)*width
				ghi := glo + width
				if ghi <= blo || glo >= bhi {
					continue
				}
				frac := (minf(bhi, ghi) - maxf(blo, glo)) / maxf(bhi-blo, 1e-12)
				counts[i][g] += kb.counts[b] * mask[b] * frac
				dists[i][g] += kb.distinct[b] * frac
			}
		}
	}
	joinSize := 0.0
	for g := 0; g < grid; g++ {
		prod := 1.0
		maxd := 1.0
		for i := 0; i < k; i++ {
			prod *= counts[i][g]
			if dists[i][g] > maxd {
				maxd = dists[i][g]
			}
		}
		if prod == 0 {
			continue
		}
		joinSize += prod / math.Pow(maxd, float64(k-1))
	}
	denom := 1.0
	for i := 0; i < k; i++ {
		if tots[i] == 0 {
			return 0
		}
		denom *= tots[i]
	}
	return joinSize / denom
}

func addKey(m map[string]map[string]bool, alias, col string) {
	if m[alias] == nil {
		m[alias] = map[string]bool{}
	}
	m[alias][col] = true
}

// edgeSelectivity returns the bucket-level join selectivity of edge j:
// the estimated join size divided by |A|·|B| (unfiltered key counts,
// optionally masked by key-column predicates).
func (e *FactorJoin) edgeSelectivity(q *query.Query, j query.Join) float64 {
	la, lc := q.TableOf(j.LeftAlias), j.LeftCol
	ra, rc := q.TableOf(j.RightAlias), j.RightCol
	kbL, okL := e.buckets[ColKey{la, lc}]
	kbR, okR := e.buckets[ColKey{ra, rc}]
	if !okL || !okR {
		return 1 / joinDivisor(e.cs, q, j) // unbucketed column: 1/max(ndv)
	}
	maskL := e.keyMask(q, j.LeftAlias, lc, kbL)
	maskR := e.keyMask(q, j.RightAlias, rc, kbR)

	// Normalize by unfiltered totals: the masks' cardinality reduction must
	// survive in the returned selectivity (the per-table factors in
	// Estimate deliberately exclude key-column predicates).
	totL, totR, joinSize := 0.0, 0.0, 0.0
	for b := 0; b < len(kbL.counts); b++ {
		totL += kbL.counts[b]
	}
	for b := 0; b < len(kbR.counts); b++ {
		totR += kbR.counts[b]
	}
	if totL == 0 || totR == 0 {
		return 0
	}
	// Align buckets by value range: walk R buckets per L bucket overlap.
	for bl := 0; bl < len(kbL.counts); bl++ {
		nl := kbL.counts[bl] * maskL[bl]
		if nl == 0 {
			continue
		}
		llo, lhi := kbL.bucketRange(bl)
		for br := 0; br < len(kbR.counts); br++ {
			rlo, rhi := kbR.bucketRange(br)
			if rhi <= llo || rlo >= lhi {
				continue
			}
			overlap := (minf(lhi, rhi) - maxf(llo, rlo)) / maxf(lhi-llo, 1e-12)
			nr := kbR.counts[br] * maskR[br] * ((minf(lhi, rhi) - maxf(llo, rlo)) / maxf(rhi-rlo, 1e-12))
			d := maxf(kbL.distinct[bl]*overlap, kbR.distinct[br])
			if d < 1 {
				d = 1
			}
			joinSize += nl * overlap * nr / d
		}
	}
	return joinSize / (totL * totR)
}

// keyMask returns per-bucket pass fractions implied by predicates on the
// key column itself (1 = fully kept).
func (e *FactorJoin) keyMask(q *query.Query, alias, col string, kb *keyBuckets) []float64 {
	mask := make([]float64, len(kb.counts))
	for b := range mask {
		mask[b] = 1
	}
	ts := e.cs.Tables[q.TableOf(alias)]
	for _, p := range q.PredsOn(alias) {
		if p.Column != col {
			continue
		}
		csCol := ts.Cols[col]
		lo, hi := p.Bounds(csCol.Min, csCol.Max)
		for b := range mask {
			blo, bhi := kb.bucketRange(b)
			if bhi < lo || blo > hi {
				mask[b] = 0
				continue
			}
			w := bhi - blo
			if w <= 0 {
				continue
			}
			frac := (minf(bhi, hi) - maxf(blo, lo)) / w
			if frac < mask[b] {
				mask[b] = frac
			}
		}
	}
	return mask
}
