// Package workload generates the synthetic SPJ query workloads the
// experiments train and evaluate on: random connected FK-walk queries
// with data-sampled literals, deep self-join chains for the join-order
// studies, and exact labeling via the executor.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"lqo/internal/data"
	"lqo/internal/exec"
	"lqo/internal/query"
)

// Options configures the random SPJ query generator.
type Options struct {
	Seed     int64
	Count    int
	MinJoins int // minimum tables per query minus one (0 = single table allowed)
	MaxJoins int // maximum join edges per query (default 4)
	MaxPreds int // maximum filter predicates per query (default 4)
}

// eqProb is the probability a generated predicate is an equality.
const eqProb = 0.35

func (o Options) withDefaults() Options {
	if o.Count == 0 {
		o.Count = 100
	}
	if o.MaxJoins == 0 {
		o.MaxJoins = 4
	}
	if o.MaxPreds == 0 {
		o.MaxPreds = 4
	}
	return o
}

// GenWorkload produces random SPJ queries over the catalog's schema graph:
// connected random walks over FK edges with literal values sampled from
// the data (so predicates are rarely empty). Queries are deterministic in
// the seed.
func GenWorkload(cat *data.Catalog, opts Options) []*query.Query {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	edges := query.DeriveSchemaEdges(cat)
	adj := map[string][]query.SchemaEdge{}
	for _, e := range edges {
		adj[e.T1] = append(adj[e.T1], e)
		adj[e.T2] = append(adj[e.T2], e)
	}
	tables := cat.TableNames()
	var out []*query.Query
	for len(out) < opts.Count {
		q := genOne(cat, adj, tables, rng, opts)
		if q != nil {
			out = append(out, q)
		}
	}
	return out
}

func genOne(cat *data.Catalog, adj map[string][]query.SchemaEdge, tables []string, rng *rand.Rand, opts Options) *query.Query {
	nJoins := opts.MinJoins
	if opts.MaxJoins > opts.MinJoins {
		nJoins += rng.Intn(opts.MaxJoins - opts.MinJoins + 1)
	}
	q := &query.Query{}
	start := tables[rng.Intn(len(tables))]
	q.Refs = append(q.Refs, query.TableRef{Alias: start, Table: start})
	used := map[string]bool{start: true}
	for j := 0; j < nJoins; j++ {
		// Collect candidate edges extending the current table set, in
		// deterministic order.
		var cands []query.SchemaEdge
		var members []string
		for t := range used {
			members = append(members, t)
		}
		sort.Strings(members)
		for _, t := range members {
			for _, e := range adj[t] {
				if used[e.T1] != used[e.T2] { // exactly one endpoint inside
					cands = append(cands, e)
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		e := cands[rng.Intn(len(cands))]
		newT := e.T1
		if used[e.T1] {
			newT = e.T2
		}
		used[newT] = true
		q.Refs = append(q.Refs, query.TableRef{Alias: newT, Table: newT})
		q.Joins = append(q.Joins, query.Join{
			LeftAlias: e.T1, LeftCol: e.C1, RightAlias: e.T2, RightCol: e.C2,
		})
	}
	sort.Slice(q.Refs, func(i, k int) bool { return q.Refs[i].Alias < q.Refs[k].Alias })

	// Predicates on non-key columns of the chosen tables.
	nPreds := 1 + rng.Intn(opts.MaxPreds)
	type cand struct {
		alias string
		col   *data.Column
	}
	var cols []cand
	for _, r := range q.Refs {
		t := cat.Table(r.Table)
		for _, c := range t.Cols {
			if c.Name == "id" || t.Index(c.Name) != nil || c.Len() == 0 {
				continue
			}
			cols = append(cols, cand{r.Alias, c})
		}
	}
	if len(cols) == 0 {
		return nil
	}
	usedCols := map[string]bool{}
	for p := 0; p < nPreds && p < len(cols); p++ {
		c := cols[rng.Intn(len(cols))]
		key := c.alias + "." + c.col.Name
		if usedCols[key] {
			continue
		}
		usedCols[key] = true
		q.Preds = append(q.Preds, genPred(c.alias, c.col, rng, eqProb))
	}
	if len(q.Preds) == 0 {
		return nil
	}
	return q
}

func genPred(alias string, c *data.Column, rng *rand.Rand, eqProb float64) query.Pred {
	sampleVal := func() data.Value { return c.Value(rng.Intn(c.Len())) }
	r := rng.Float64()
	switch {
	case r < eqProb:
		return query.Pred{Alias: alias, Column: c.Name, Op: query.Eq, Val: sampleVal()}
	case r < eqProb+0.35:
		a, b := sampleVal(), sampleVal()
		if a.Compare(b) > 0 {
			a, b = b, a
		}
		return query.Pred{Alias: alias, Column: c.Name, Op: query.Between, Val: a, Val2: b}
	case r < eqProb+0.5:
		return query.Pred{Alias: alias, Column: c.Name, Op: query.Le, Val: sampleVal()}
	default:
		return query.Pred{Alias: alias, Column: c.Name, Op: query.Ge, Val: sampleVal()}
	}
}

// Labeled is a workload query with its exact cardinality.
type Labeled struct {
	Q    *query.Query
	Card float64
}

// GenLabeled generates exactly opts.Count labeled queries, skipping any
// whose execution exceeds the executor's intermediate cap (star joins on
// heavy-hitter keys can produce results orders of magnitude larger than
// the database; such queries are outside every surveyed benchmark's
// envelope).
func GenLabeled(cat *data.Catalog, cache *exec.CardCache, opts Options) ([]Labeled, error) {
	opts = opts.withDefaults()
	var out []Labeled
	seed := opts.Seed
	for attempts := 0; len(out) < opts.Count; attempts++ {
		if attempts > 50 {
			return nil, fmt.Errorf("workload: could not label %d queries (got %d)", opts.Count, len(out))
		}
		batch := opts
		batch.Seed = seed
		batch.Count = opts.Count - len(out)
		for _, q := range GenWorkload(cat, batch) {
			c, err := cache.TrueCard(q)
			if err != nil {
				continue
			}
			out = append(out, Labeled{Q: q, Card: c})
		}
		seed += 1000003
	}
	return out, nil
}
