package sqlx

import (
	"fmt"
	"strconv"
	"strings"

	"lqo/internal/data"
	"lqo/internal/query"
)

// Parse parses a SELECT COUNT(*) SPJ statement and binds it against cat:
// table and column references are validated, and string literals are
// resolved to dictionary codes of the referenced column. Conditions of the
// form alias.col = alias.col become equi-join edges; everything else must
// be a single-column filter.
func Parse(sql string, cat *data.Catalog) (*query.Query, error) {
	p, err := parseBound(sql, cat)
	if err != nil {
		return nil, err
	}
	return p.q, nil
}

// parseBound is Parse returning the parser, which holds what the parse
// resolved against cat.
func parseBound(sql string, cat *data.Catalog) (parser, error) {
	p, err := parse(sql, cat)
	if err != nil {
		return parser{}, err
	}
	if p.params > 0 {
		return parser{}, fmt.Errorf("sqlx: statement has %d parameter placeholder(s); use Prepare", p.params)
	}
	if err := p.q.Validate(cat); err != nil {
		return parser{}, err
	}
	return p, nil
}

// parse lexes and parses sql against cat, placeholders allowed, without
// validating the result.
func parse(sql string, cat *data.Catalog) (parser, error) {
	toks, err := lex(sql)
	if err != nil {
		return parser{}, err
	}
	p := parser{toks: toks, cat: cat}
	if _, err := p.parseSelect(); err != nil {
		return parser{}, err
	}
	return p, nil
}

type parser struct {
	toks   []token
	i      int
	cat    *data.Catalog
	q      *query.Query
	params int // placeholder ordinals handed out so far
	// absent records each dictionary a string literal was missing from,
	// with its length then: the literal's code is that length plus one.
	absent []dictLen
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("sqlx: expected %s, got %s at %d", kw, t, t.pos)
	}
	return nil
}

func (p *parser) isKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("sqlx: expected %s, got %s at %d", what, t, t.pos)
	}
	return t, nil
}

var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "and": true,
	"between": true, "count": true, "as": true,
}

func (p *parser) parseSelect() (*query.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	agg, err := p.parseAggregate()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	p.q = &query.Query{Agg: agg}
	if err := p.parseFromList(); err != nil {
		return nil, err
	}
	if p.isKeyword("WHERE") {
		p.next()
		if err := p.parseConditions(); err != nil {
			return nil, err
		}
	}
	if p.cur().kind == tokSemi {
		p.next()
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, fmt.Errorf("sqlx: trailing input %s at %d", t, t.pos)
	}
	return p.q, nil
}

// parseAggregate parses COUNT(*) or SUM/AVG/MIN/MAX(alias.column).
func (p *parser) parseAggregate() (query.Agg, error) {
	t, err := p.expect(tokIdent, "aggregate function")
	if err != nil {
		return query.Agg{}, err
	}
	var kind query.AggKind
	switch strings.ToUpper(t.text) {
	case "COUNT":
		kind = query.AggCount
	case "SUM":
		kind = query.AggSum
	case "AVG":
		kind = query.AggAvg
	case "MIN":
		kind = query.AggMin
	case "MAX":
		kind = query.AggMax
	default:
		return query.Agg{}, fmt.Errorf("sqlx: unsupported aggregate %q at %d", t.text, t.pos)
	}
	if _, err := p.expect(tokLParen, "("); err != nil {
		return query.Agg{}, err
	}
	if kind == query.AggCount {
		if _, err := p.expect(tokStar, "*"); err != nil {
			return query.Agg{}, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return query.Agg{}, err
		}
		return query.Agg{Kind: query.AggCount}, nil
	}
	a, err := p.expect(tokIdent, "alias")
	if err != nil {
		return query.Agg{}, err
	}
	if _, err := p.expect(tokDot, "."); err != nil {
		return query.Agg{}, err
	}
	c, err := p.expect(tokIdent, "column")
	if err != nil {
		return query.Agg{}, err
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return query.Agg{}, err
	}
	return query.Agg{Kind: kind, Alias: a.text, Column: c.text}, nil
}

func (p *parser) parseFromList() error {
	for {
		t, err := p.expect(tokIdent, "table name")
		if err != nil {
			return err
		}
		ref := query.TableRef{Alias: t.text, Table: t.text}
		if p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, "AS") {
			p.next()
		}
		if p.cur().kind == tokIdent && !reserved[strings.ToLower(p.cur().text)] {
			ref.Alias = p.next().text
		}
		p.q.Refs = append(p.q.Refs, ref)
		if p.cur().kind != tokComma {
			return nil
		}
		p.next()
	}
}

func (p *parser) parseConditions() error {
	for {
		if err := p.parseCondition(); err != nil {
			return err
		}
		if !p.isKeyword("AND") {
			return nil
		}
		p.next()
	}
}

// colRef is "alias.column" with the column's resolved base table.
type colRef struct {
	alias, column string
	col           *data.Column
}

func (p *parser) parseColRef() (colRef, error) {
	a, err := p.expect(tokIdent, "alias")
	if err != nil {
		return colRef{}, err
	}
	if _, err := p.expect(tokDot, "."); err != nil {
		return colRef{}, err
	}
	c, err := p.expect(tokIdent, "column")
	if err != nil {
		return colRef{}, err
	}
	ref := colRef{alias: a.text, column: c.text}
	if tn := p.tableOf(a.text); tn != "" {
		if t := p.cat.Table(tn); t != nil {
			ref.col = t.Column(c.text)
		}
	}
	return ref, nil
}

func (p *parser) tableOf(alias string) string {
	for _, r := range p.q.Refs {
		if r.Alias == alias {
			return r.Table
		}
	}
	return ""
}

func (p *parser) parseCondition() error {
	lhs, err := p.parseColRef()
	if err != nil {
		return err
	}
	if p.isKeyword("BETWEEN") {
		p.next()
		lo, loParam, err := p.parseLiteral(lhs)
		if err != nil {
			return err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return err
		}
		hi, hiParam, err := p.parseLiteral(lhs)
		if err != nil {
			return err
		}
		p.q.Preds = append(p.q.Preds, query.Pred{
			Alias: lhs.alias, Column: lhs.column, Op: query.Between,
			Val: lo, Val2: hi, Param: loParam, Param2: hiParam,
		})
		return nil
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return err
	}
	op, err := parseOp(opTok.text)
	if err != nil {
		return err
	}
	// alias.col = alias.col → join edge.
	if op == query.Eq && p.cur().kind == tokIdent && p.toks[p.i+1].kind == tokDot {
		rhs, err := p.parseColRef()
		if err != nil {
			return err
		}
		p.q.Joins = append(p.q.Joins, query.Join{
			LeftAlias: lhs.alias, LeftCol: lhs.column,
			RightAlias: rhs.alias, RightCol: rhs.column,
		})
		return nil
	}
	val, param, err := p.parseLiteral(lhs)
	if err != nil {
		return err
	}
	p.q.Preds = append(p.q.Preds, query.Pred{
		Alias: lhs.alias, Column: lhs.column, Op: op, Val: val, Param: param,
	})
	return nil
}

func parseOp(s string) (query.CmpOp, error) {
	switch s {
	case "=":
		return query.Eq, nil
	case "<>":
		return query.Ne, nil
	case "<":
		return query.Lt, nil
	case "<=":
		return query.Le, nil
	case ">":
		return query.Gt, nil
	case ">=":
		return query.Ge, nil
	default:
		return 0, fmt.Errorf("sqlx: unsupported operator %q", s)
	}
}

// parseLiteral parses a literal value or a ? placeholder. For a literal
// the returned ordinal is 0; for a placeholder the value is zero and the
// ordinal is the placeholder's 1-based position in the statement.
func (p *parser) parseLiteral(ref colRef) (data.Value, int, error) {
	t := p.next()
	switch t.kind {
	case tokParam:
		p.params++
		return data.Value{}, p.params, nil
	case tokNumber:
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return data.Value{}, 0, fmt.Errorf("sqlx: bad float %q at %d", t.text, t.pos)
			}
			return data.FloatVal(f), 0, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return data.Value{}, 0, fmt.Errorf("sqlx: bad integer %q at %d", t.text, t.pos)
		}
		if ref.col != nil && ref.col.Kind == data.Float {
			return data.FloatVal(float64(n)), 0, nil
		}
		return data.IntVal(n), 0, nil
	case tokString:
		if ref.col == nil {
			return data.Value{}, 0, fmt.Errorf("sqlx: cannot resolve string literal for unknown column %s.%s", ref.alias, ref.column)
		}
		if ref.col.Kind != data.String || ref.col.Dict == nil {
			return data.Value{}, 0, fmt.Errorf("sqlx: string literal on non-text column %s.%s", ref.alias, ref.column)
		}
		code, ok := ref.col.Dict.Lookup(t.text)
		if !ok {
			// A value absent from the dictionary matches nothing; encode it
			// as an out-of-domain code so execution yields zero rows.
			code = int64(ref.col.Dict.Len()) + 1
			p.absent = append(p.absent, dictLen{ref.col.Dict, ref.col.Dict.Len()})
		}
		return data.IntVal(code), 0, nil
	default:
		return data.Value{}, 0, fmt.Errorf("sqlx: expected literal, got %s at %d", t, t.pos)
	}
}
