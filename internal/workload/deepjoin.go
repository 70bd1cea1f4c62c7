package workload

import (
	"fmt"
	"math/rand"

	"lqo/internal/data"
	"lqo/internal/query"
)

// GenDeepJoinQuery builds an n-table query by random-walking the schema's
// FK graph with *fresh aliases* at every step (self-joins allowed), which
// produces arbitrarily deep join graphs on small schemas — the workload
// shape of E5's deep-join columns, where plan quality is compared by
// estimated cost, not execution.
func GenDeepJoinQuery(cat *data.Catalog, nTables int, rng *rand.Rand, predsPer float64) (*query.Query, error) {
	edges := query.DeriveSchemaEdges(cat)
	if len(edges) == 0 {
		return nil, fmt.Errorf("bench: no schema edges")
	}
	adj := map[string][]query.SchemaEdge{}
	for _, e := range edges {
		adj[e.T1] = append(adj[e.T1], e)
		adj[e.T2] = append(adj[e.T2], e)
	}
	q := &query.Query{}
	counts := map[string]int{}
	newAlias := func(table string) string {
		counts[table]++
		if counts[table] == 1 {
			return table
		}
		return fmt.Sprintf("%s_%d", table, counts[table])
	}
	start := edges[rng.Intn(len(edges))].T1
	a0 := newAlias(start)
	q.Refs = append(q.Refs, query.TableRef{Alias: a0, Table: start})
	type bound struct {
		alias, table string
	}
	have := []bound{{a0, start}}
	for len(q.Refs) < nTables {
		// Pick a random existing alias and a random incident schema edge.
		src := have[rng.Intn(len(have))]
		es := adj[src.table]
		if len(es) == 0 {
			return nil, fmt.Errorf("bench: table %s has no edges", src.table)
		}
		e := es[rng.Intn(len(es))]
		var newTable, srcCol, newCol string
		if e.T1 == src.table {
			newTable, srcCol, newCol = e.T2, e.C1, e.C2
		} else {
			newTable, srcCol, newCol = e.T1, e.C2, e.C1
		}
		na := newAlias(newTable)
		q.Refs = append(q.Refs, query.TableRef{Alias: na, Table: newTable})
		q.Joins = append(q.Joins, query.Join{
			LeftAlias: src.alias, LeftCol: srcCol, RightAlias: na, RightCol: newCol,
		})
		have = append(have, bound{na, newTable})
	}
	// Sprinkle predicates on non-key columns.
	for _, b := range have {
		if rng.Float64() >= predsPer {
			continue
		}
		t := cat.Table(b.table)
		var cands []*data.Column
		for _, c := range t.Cols {
			if c.Name != "id" && t.Index(c.Name) == nil && c.Len() > 0 {
				cands = append(cands, c)
			}
		}
		if len(cands) == 0 {
			continue
		}
		col := cands[rng.Intn(len(cands))]
		q.Preds = append(q.Preds, genPred(b.alias, col, rng, 0.3))
	}
	return q, nil
}
