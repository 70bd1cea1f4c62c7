package sqlx

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

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
	if err := p.q.Validate(p.cat); err != nil {
		return parser{}, err
	}
	return p, nil
}

// parse lexes and parses sql against one state of cat (its Pin, which the
// parser keeps), placeholders allowed, without validating the result.
// Tokens come from the lexer as the parser needs them, so a parse that
// fails lexes the rest of the text: a lex error anywhere in it is the
// error reported.
func parse(sql string, cat *data.Catalog) (parser, error) {
	p := parser{lex: lexer{src: sql}, cat: cat.Pin()}
	p.tok, p.ahead = p.lex.next(), p.lex.next()
	if err := p.parseSelect(); err != nil || p.lex.err != nil {
		for p.lex.next().kind != tokEOF {
		}
		if p.lex.err != nil {
			return parser{}, p.lex.err
		}
		return parser{}, err
	}
	return p, nil
}

type parser struct {
	lex        lexer
	tok, ahead token // the current token and the one after it
	cat        *data.Catalog
	q          *query.Query
	caps       clauseCaps
	params     int // placeholder ordinals handed out so far
	// absent records each dictionary a string literal was missing from,
	// with its length then: the literal's code is that length plus one.
	absent []dictLen
}

func (p *parser) next() token {
	t := p.tok
	p.tok, p.ahead = p.ahead, p.lex.next()
	return t
}

// clauseCaps are the clause counts of a text, read off its bytes by
// capsOf to size the query's clause slices: refs are separated by commas,
// a column reference is an identifier after a dot, and a join is the
// condition with an identifier after its "="; it has two column
// references and a predicate has one. String literals can skew a count,
// which costs at most a slice grow.
type clauseCaps struct{ refs, joins, preds int }

func capsOf(src string) clauseCaps {
	c, cols := clauseCaps{refs: 1 + strings.Count(src, ",")}, 0
	for i := 1; i < len(src); i++ {
		if !unicode.IsLetter(rune(src[i])) && src[i] != '_' {
			continue
		}
		j := i - 1
		for j > 0 && src[j] == ' ' {
			j--
		}
		switch src[j] {
		case '.':
			cols++
		case '=':
			c.joins++
		}
	}
	c.preds = max(cols-2*c.joins, 0)
	return c
}

// push appends x to s, which it first makes with capacity hint.
func push[T any](s []T, x T, hint int) []T {
	if s == nil {
		s = make([]T, 0, max(hint, 1))
	}
	return append(s, x)
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("sqlx: expected %s, got %s at %d", kw, t, t.pos)
	}
	return nil
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
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

func (p *parser) parseSelect() error {
	if err := p.expectKeyword("SELECT"); err != nil {
		return err
	}
	agg, err := p.parseAggregate()
	if err != nil {
		return err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return err
	}
	p.q = &query.Query{Agg: agg}
	p.caps = capsOf(p.lex.src)
	if err := p.parseFromList(); err != nil {
		return err
	}
	if p.isKeyword("WHERE") {
		p.next()
		if err := p.parseConditions(); err != nil {
			return err
		}
	}
	if p.tok.kind == tokSemi {
		p.next()
	}
	if t := p.tok; t.kind != tokEOF {
		return fmt.Errorf("sqlx: trailing input %s at %d", t, t.pos)
	}
	return nil
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
		as := p.isKeyword("AS")
		if as {
			p.next()
		}
		if t := p.tok; t.kind == tokIdent && !reserved[strings.ToLower(t.text)] {
			ref.Alias = p.next().text
		} else if as {
			return fmt.Errorf("sqlx: expected alias after AS, got %s at %d", t, t.pos)
		}
		p.q.Refs = push(p.q.Refs, ref, p.caps.refs)
		if p.tok.kind != tokComma {
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
		p.q.Preds = push(p.q.Preds, query.Pred{
			Alias: lhs.alias, Column: lhs.column, Op: query.Between,
			Val: lo, Val2: hi, Param: loParam, Param2: hiParam,
		}, p.caps.preds)
		return nil
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return err
	}
	op := ops[opTok.text]
	// alias.col = alias.col → join edge.
	if op == query.Eq && p.tok.kind == tokIdent && p.ahead.kind == tokDot {
		rhs, err := p.parseColRef()
		if err != nil {
			return err
		}
		p.q.Joins = push(p.q.Joins, query.Join{
			LeftAlias: lhs.alias, LeftCol: lhs.column,
			RightAlias: rhs.alias, RightCol: rhs.column,
		}, p.caps.joins)
		return nil
	}
	val, param, err := p.parseLiteral(lhs)
	if err != nil {
		return err
	}
	p.q.Preds = push(p.q.Preds, query.Pred{
		Alias: lhs.alias, Column: lhs.column, Op: op, Val: val, Param: param,
	}, p.caps.preds)
	return nil
}

// ops maps each operator token the lexer emits to its comparison.
var ops = map[string]query.CmpOp{"=": query.Eq, "<>": query.Ne, "<": query.Lt, "<=": query.Le, ">": query.Gt, ">=": query.Ge}

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
