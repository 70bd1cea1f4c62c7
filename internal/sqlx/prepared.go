package sqlx

import (
	"fmt"
	"slices"

	"lqo/internal/data"
	"lqo/internal/query"
)

// Prepared is a parsed, validated statement template with ?-placeholder
// parameters: the parse/plan-relevant shape is fixed, only literal values
// vary per execution. Prepare once, Bind per execution; the serving
// layer caches optimized plans keyed on ShapeKey so repeated executions
// of the same template skip both parsing and planning.
//
// A parse depends on the catalog it resolved names and literals in, so a
// Prepared records what it resolved and Current reports whether that
// still holds.
//
// A Prepared is immutable after construction and safe for concurrent
// Bind calls.
type Prepared struct {
	tmpl  *query.Query
	slots []slot
	shape string
	graph *query.JoinGraph // the template's, for Graph; nil from ParseStatement
	// tables are the distinct tables the statement names, as resolved
	// from a catalog at generation gen.
	tables []*data.Table
	gen    uint64
	absent []dictLen
}

// dictLen is a dictionary and its length when a literal was looked up in
// it and found absent.
type dictLen struct {
	d *data.Dict
	n int
}

// slot records where one placeholder binds: the predicate index, which
// side of a BETWEEN it fills, and the resolved target column (for
// literal coercion exactly mirroring parseLiteral).
type slot struct {
	pred   int
	second bool
	col    *data.Column
	alias  string
	column string
}

// Prepare parses a statement template containing ? placeholders and
// binds its table/column references against cat. The template's
// structure is validated eagerly; literal values arrive later via Bind.
// Statements without placeholders prepare fine (no placeholder slots), so
// callers can route all traffic through Prepare/Bind uniformly.
func Prepare(sql string, cat *data.Catalog) (*Prepared, error) {
	p, err := parse(sql, cat)
	if err != nil {
		return nil, err
	}
	q, cat := p.q, p.cat
	if err := q.ValidateShape(cat); err != nil {
		return nil, err
	}
	slots := make([]slot, p.params)
	for i, pr := range q.Preds {
		for _, side := range []struct {
			ord    int
			second bool
		}{{pr.Param, false}, {pr.Param2, true}} {
			if side.ord == 0 {
				continue
			}
			col := cat.Table(q.TableOf(pr.Alias)).Column(pr.Column)
			slots[side.ord-1] = slot{pred: i, second: side.second, col: col, alias: pr.Alias, column: pr.Column}
		}
	}
	g := query.NewJoinGraph(q)
	pr := p.prepared(slots, g)
	pr.graph = g
	return pr, nil
}

// ParseStatement is Parse returning the query as a parameterless
// Prepared, so that Current can tell whether the parse is still what a
// fresh Parse would return, and the query's join graph. Its Query is the
// parsed query and its ShapeKey that query's Key, read off the graph.
// The Prepared does not keep the graph: a caller that plans the query
// takes it from here.
func ParseStatement(sql string, cat *data.Catalog) (*Prepared, *query.JoinGraph, error) {
	p, err := parseBound(sql, cat)
	if err != nil {
		return nil, nil, err
	}
	g := query.NewJoinGraph(p.q)
	return p.prepared(nil, g), g, nil
}

// prepared wraps the parser's validated query, indexed by g, as a
// Prepared.
func (p *parser) prepared(slots []slot, g *query.JoinGraph) *Prepared {
	pr := &Prepared{tmpl: p.q, slots: slots, shape: g.QueryKey(), absent: p.absent, gen: p.cat.Generation()}
	pr.tables = make([]*data.Table, 0, len(p.q.Refs))
	for _, r := range p.q.Refs {
		if t := p.cat.Table(r.Table); !slices.Contains(pr.tables, t) {
			pr.tables = append(pr.tables, t)
		}
	}
	return pr
}

// Current reports whether the statement still means, against cat, what
// it meant when it was parsed: a fresh parse of its text would produce
// the same template. Two things must hold. Every table it names must
// still be the one cat resolves the name to; then its columns, their
// kinds (int literals on Float columns became floats) and the
// dictionaries its string literals were coded in are the same objects.
// And every dictionary a string literal was absent from must have its
// parse-time length: such a literal was coded Len()+1. Dictionaries only
// grow and never re-code, so a present literal's code is permanent, and
// an unchanged length means no absent literal's code has changed. The
// tables are looked up, in one state of cat, only once the catalog's
// generation has moved.
func (p *Prepared) Current(cat *data.Catalog) bool {
	if cat = cat.Pin(); cat.Generation() != p.gen {
		for _, t := range p.tables {
			if cat.Table(t.Name) != t {
				return false
			}
		}
	}
	for _, a := range p.absent {
		if a.d.Len() != a.n {
			return false
		}
	}
	return true
}

// Query returns the template itself, not a copy: callers share it and
// must not mutate it. For a statement without placeholders it is the
// executable query; otherwise Bind materializes one.
func (p *Prepared) Query() *query.Query { return p.tmpl }

// ShapeKey returns the canonical key of the parameterized shape:
// placeholders render as "?N" ordinals inside the collision-safe
// query.Key encoding, so two templates share a ShapeKey exactly when
// they are the same query modulo bound values. This is the plan-cache
// key for prepared statements.
func (p *Prepared) ShapeKey() string { return p.shape }

// Bind materializes an executable query from the template: one argument
// per placeholder, in statement order. Accepted argument types are
// int/int64 (integer literal), float64 (float literal), string (text
// literal, resolved through the column dictionary exactly like a parsed
// literal — unknown strings become an out-of-domain code matching zero
// rows), and data.Value (passed through). The template is never mutated:
// the returned query has Preds of its own, and shares the template's Refs
// and Joins, which — like every query on the serving path — nothing
// writes to.
func (p *Prepared) Bind(args ...any) (*query.Query, error) {
	if len(args) != len(p.slots) {
		return nil, fmt.Errorf("sqlx: bind got %d args, statement has %d placeholder(s)", len(args), len(p.slots))
	}
	t := p.tmpl
	q := &query.Query{Refs: t.Refs, Joins: t.Joins, Preds: append([]query.Pred(nil), t.Preds...), Agg: t.Agg}
	for i, s := range p.slots {
		v, err := coerce(args[i], s)
		if err != nil {
			return nil, fmt.Errorf("sqlx: bind arg %d: %w", i+1, err)
		}
		pr := &q.Preds[s.pred]
		if s.second {
			pr.Val2, pr.Param2 = v, 0
		} else {
			pr.Val, pr.Param = v, 0
		}
	}
	return q, nil
}

// Graph returns the join graph of q, a Bind of p: the template's, built
// once by Prepare, rebound (query.JoinGraph.Rebind). Statements from
// ParseStatement have no template graph to rebind.
func (p *Prepared) Graph(q *query.Query) *query.JoinGraph { return p.graph.Rebind(q) }

// coerce converts one bind argument to the slot column's value domain.
func coerce(arg any, s slot) (data.Value, error) {
	switch a := arg.(type) {
	case data.Value:
		return a, nil
	case int:
		return coerceInt(int64(a), s), nil
	case int64:
		return coerceInt(a, s), nil
	case float64:
		if s.col != nil && s.col.Kind == data.String {
			return data.Value{}, fmt.Errorf("float bind on text column %s.%s", s.alias, s.column)
		}
		return data.FloatVal(a), nil
	case string:
		if s.col == nil || s.col.Kind != data.String || s.col.Dict == nil {
			return data.Value{}, fmt.Errorf("string bind on non-text column %s.%s", s.alias, s.column)
		}
		code, ok := s.col.Dict.Lookup(a)
		if !ok {
			code = int64(s.col.Dict.Len()) + 1
		}
		return data.IntVal(code), nil
	default:
		return data.Value{}, fmt.Errorf("unsupported bind type %T", arg)
	}
}

func coerceInt(n int64, s slot) data.Value {
	if s.col != nil && s.col.Kind == data.Float {
		return data.FloatVal(float64(n))
	}
	return data.IntVal(n)
}
