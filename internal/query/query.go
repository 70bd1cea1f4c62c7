// Package query defines the logical representation of SPJ (select-project-
// join) queries: table references, predicates, equi-join edges, and the
// join graph with connected-subgraph enumeration used by optimizers and
// by sub-query cardinality estimation.
package query

import (
	"fmt"
	"sort"
	"strings"

	"lqo/internal/data"
)

// CmpOp is a comparison operator in a predicate.
type CmpOp int

// Supported comparison operators. Between is a closed range [Val, Val2].
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
	Between
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Between:
		return "BETWEEN"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Pred is a single-column filter predicate "alias.column op value".
//
// Param/Param2, when non-zero, mark the value (respectively the Between
// upper bound) as an unbound 1-based prepared-statement placeholder: the
// predicate belongs to a statement template, Val/Val2 are meaningless,
// and the query must be bound (sqlx.Prepared.Bind) before it can be
// validated, estimated or executed.
type Pred struct {
	Alias  string
	Column string
	Op     CmpOp
	Val    data.Value
	Val2   data.Value // upper bound for Between
	Param  int        // 1-based placeholder ordinal for Val; 0 = literal
	Param2 int        // 1-based placeholder ordinal for Val2; 0 = literal
}

// String renders the predicate in SQL. Unbound placeholders render as
// "?", matching the prepared-statement source text.
func (p Pred) String() string {
	lo, hi := p.Val.String(), p.Val2.String()
	if p.Param != 0 {
		lo = "?"
	}
	if p.Param2 != 0 {
		hi = "?"
	}
	if p.Op == Between {
		return fmt.Sprintf("%s.%s BETWEEN %s AND %s", p.Alias, p.Column, lo, hi)
	}
	return fmt.Sprintf("%s.%s %s %s", p.Alias, p.Column, p.Op, lo)
}

// Matches reports whether the numeric value v satisfies the predicate.
func (p Pred) Matches(v float64) bool {
	switch p.Op {
	case Eq:
		return v == p.Val.AsFloat()
	case Ne:
		return v != p.Val.AsFloat()
	case Lt:
		return v < p.Val.AsFloat()
	case Le:
		return v <= p.Val.AsFloat()
	case Gt:
		return v > p.Val.AsFloat()
	case Ge:
		return v >= p.Val.AsFloat()
	case Between:
		return v >= p.Val.AsFloat() && v <= p.Val2.AsFloat()
	default:
		return false
	}
}

// MatchesInt reports whether the int64 value v (an Int column value or a
// String column's dictionary code) satisfies the predicate. When the
// predicate's value is itself integral the comparison happens exactly in
// int64 — float64 cannot represent every int64 above 2^53, so the float
// path of Matches would conflate adjacent large keys. Mixed-kind
// comparisons (a float literal against an int column) keep the float
// semantics of Matches.
func (p Pred) MatchesInt(v int64) bool {
	if p.Val.K == data.Float || (p.Op == Between && p.Val2.K == data.Float) {
		return p.Matches(float64(v))
	}
	switch p.Op {
	case Eq:
		return v == p.Val.I
	case Ne:
		return v != p.Val.I
	case Lt:
		return v < p.Val.I
	case Le:
		return v <= p.Val.I
	case Gt:
		return v > p.Val.I
	case Ge:
		return v >= p.Val.I
	case Between:
		return v >= p.Val.I && v <= p.Val2.I
	default:
		return false
	}
}

// Bounds returns the selected numeric range [lo, hi] implied by the
// predicate, using ±inf sentinels supplied by the caller for open sides.
// Ne predicates select the full range (their selectivity is handled
// separately by estimators).
func (p Pred) Bounds(min, max float64) (lo, hi float64) {
	v := p.Val.AsFloat()
	switch p.Op {
	case Eq:
		return v, v
	case Lt, Le:
		return min, v
	case Gt, Ge:
		return v, max
	case Between:
		return v, p.Val2.AsFloat()
	default:
		return min, max
	}
}

// Join is an equi-join edge "left.lcol = right.rcol" between two aliases.
type Join struct {
	LeftAlias  string
	LeftCol    string
	RightAlias string
	RightCol   string
}

// String renders the join condition in SQL.
func (j Join) String() string {
	return j.LeftAlias + "." + j.LeftCol + " = " + j.RightAlias + "." + j.RightCol
}

// Other returns the alias on the opposite side of the edge, or "" if the
// edge does not touch alias.
func (j Join) Other(alias string) string {
	switch alias {
	case j.LeftAlias:
		return j.RightAlias
	case j.RightAlias:
		return j.LeftAlias
	default:
		return ""
	}
}

// TableRef binds an alias to a base table name. Alias equals Table when no
// explicit alias is given.
type TableRef struct {
	Alias string
	Table string
}

// Query is a logical SPJ query: FROM refs, WHERE equi-joins and filters.
// The result of interest throughout the workbench is COUNT(*) — the
// cardinality — matching the cardinality-estimation literature.
type Query struct {
	Refs  []TableRef
	Joins []Join
	Preds []Pred
	// Agg is the aggregate computed over the join result; the zero value
	// is COUNT(*), the cardinality the whole workbench revolves around.
	Agg Agg

	// key is the precomputed Key(), set only by JoinGraph.Sub and Subs on
	// the sub-queries they build. Caller-built queries are mutated in place by
	// the parser, the workload generators and statement binding, so Key
	// never memoises on them; Clone drops it.
	key string
}

// Clone returns a deep copy.
func (q *Query) Clone() *Query {
	c := &Query{
		Refs:  append([]TableRef(nil), q.Refs...),
		Joins: append([]Join(nil), q.Joins...),
		Preds: append([]Pred(nil), q.Preds...),
		Agg:   q.Agg,
	}
	return c
}

// Aliases returns the query's aliases in FROM order.
func (q *Query) Aliases() []string {
	out := make([]string, len(q.Refs))
	for i, r := range q.Refs {
		out[i] = r.Alias
	}
	return out
}

// TableOf returns the base table bound to the alias, or "".
func (q *Query) TableOf(alias string) string {
	for _, r := range q.Refs {
		if r.Alias == alias {
			return r.Table
		}
	}
	return ""
}

// PredsOn returns the filter predicates referencing the alias.
func (q *Query) PredsOn(alias string) []Pred {
	var out []Pred
	for _, p := range q.Preds {
		if p.Alias == alias {
			out = append(out, p)
		}
	}
	return out
}

// SQL renders the query as a SELECT <agg> statement.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(q.Agg.String())
	b.WriteString(" FROM ")
	for i, r := range q.Refs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.Table)
		if r.Alias != r.Table {
			b.WriteString(" ")
			b.WriteString(r.Alias)
		}
	}
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, p := range q.Preds {
		conds = append(conds, p.String())
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	b.WriteString(";")
	return b.String()
}

// Key returns a canonical string identifying the query's FROM/WHERE
// content — the part that determines cardinality: sorted refs, joins and
// predicates. Two structurally identical queries share a Key regardless
// of clause order or aggregate target (SUM and COUNT over the same join
// have the same cardinality). The encoding is collision-safe: every
// component is length-prefixed through KeyBuilder, so delimiter bytes
// inside aliases, tables, columns or literals cannot make two distinct
// queries collide (they used to, with bare ","/"|" joins). Unbound
// placeholder predicates render as "?N" ordinals, so a prepared
// statement template's Key is its binding-structure shape key.
func (q *Query) Key() string {
	if q.key != "" {
		return q.key
	}
	refs, joins, preds := q.keySegments()
	size := 2
	for _, segs := range [...][]string{refs, joins, preds} {
		sort.Strings(segs)
		for _, s := range segs {
			size += len(s)
		}
	}
	var k KeyBuilder
	k.Grow(size)
	for n, segs := range [...][]string{refs, joins, preds} {
		if n > 0 {
			k.Raw("|")
		}
		for _, s := range segs {
			k.Append(s)
		}
	}
	return k.String()
}

// keySegments encodes the Key segment of every ref, join (sides
// normalized) and predicate, each list in clause order. The segments are
// slices of one buffer.
func (q *Query) keySegments() (refs, joins, preds []string) {
	n := len(q.Refs) + len(q.Joins) + len(q.Preds)
	var k KeyBuilder
	k.Grow(40 * n) // a typical segment; longer ones just grow the buffer
	ends := make([]int, 0, n)
	for _, r := range q.Refs {
		k.Raw("r(").Atom(r.Alias).Raw(":").Atom(r.Table).Raw(")")
		ends = append(ends, k.Len())
	}
	for _, j := range q.Joins {
		if j.LeftAlias > j.RightAlias || (j.LeftAlias == j.RightAlias && j.LeftCol > j.RightCol) {
			j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol = j.RightAlias, j.RightCol, j.LeftAlias, j.LeftCol
		}
		j.appendKey(&k)
		ends = append(ends, k.Len())
	}
	for _, p := range q.Preds {
		p.appendKey(&k)
		ends = append(ends, k.Len())
	}
	segs := splitSegments(&k, ends)
	nr, nj := len(q.Refs), len(q.Refs)+len(q.Joins)
	return segs[:nr:nr], segs[nr:nj:nj], segs[nj:]
}

// splitSegments cuts k's bytes at ends into one string per segment, all
// slices of one buffer.
func splitSegments(k *KeyBuilder, ends []int) []string {
	all, segs, start := k.String(), make([]string, len(ends)), 0
	for i, end := range ends {
		segs[i] = all[start:end]
		start = end
	}
	return segs
}

// NumParams returns the number of unbound placeholder slots in the
// query's predicates (the highest Param ordinal; 0 for a fully bound
// query).
func (q *Query) NumParams() int {
	n := 0
	for _, p := range q.Preds {
		if p.Param > n {
			n = p.Param
		}
		if p.Param2 > n {
			n = p.Param2
		}
	}
	return n
}

// Subquery projects the query onto a subset of aliases: only refs in the
// subset, joins fully contained in it, and predicates on it are kept.
// Unlike JoinGraph.Sub, the result carries no precomputed key.
func (q *Query) Subquery(aliases map[string]bool) *Query {
	g := NewJoinGraph(q)
	sub := g.Sub(g.Mask(aliases))
	sub.key = ""
	return sub
}

// Validate checks that every join and predicate references a declared
// alias, and that referenced columns exist in cat. Queries with unbound
// placeholder predicates fail: they are statement templates and must be
// bound first (ValidateShape is the template-side check).
func (q *Query) Validate(cat *data.Catalog) error {
	for _, p := range q.Preds {
		if p.Param != 0 || p.Param2 != 0 {
			return fmt.Errorf("query: unbound parameter in predicate %s (bind the prepared statement first)", p)
		}
	}
	return q.ValidateShape(cat)
}

// ValidateShape is Validate for prepared-statement templates: identical
// reference and column checking, but placeholder predicates are allowed
// to remain unbound.
func (q *Query) ValidateShape(cat *data.Catalog) error {
	byAlias := make(map[string]string, len(q.Refs))
	for _, r := range q.Refs {
		if _, dup := byAlias[r.Alias]; dup {
			return fmt.Errorf("query: duplicate alias %q", r.Alias)
		}
		t := cat.Table(r.Table)
		if t == nil {
			return fmt.Errorf("query: unknown table %q", r.Table)
		}
		byAlias[r.Alias] = r.Table
	}
	checkCol := func(alias, col string) error {
		tn, ok := byAlias[alias]
		if !ok {
			return fmt.Errorf("query: unknown alias %q", alias)
		}
		if cat.Table(tn).Column(col) == nil {
			return fmt.Errorf("query: unknown column %s.%s (table %s)", alias, col, tn)
		}
		return nil
	}
	for _, j := range q.Joins {
		if err := checkCol(j.LeftAlias, j.LeftCol); err != nil {
			return err
		}
		if err := checkCol(j.RightAlias, j.RightCol); err != nil {
			return err
		}
	}
	for _, p := range q.Preds {
		if err := checkCol(p.Alias, p.Column); err != nil {
			return err
		}
	}
	if q.Agg.Kind != AggCount {
		if err := checkCol(q.Agg.Alias, q.Agg.Column); err != nil {
			return err
		}
	}
	return nil
}
