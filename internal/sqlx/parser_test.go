package sqlx

import (
	"strconv"
	"strings"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

func testCatalog() *data.Catalog {
	cat := data.NewCatalog()
	id := &data.Column{Name: "id", Kind: data.Int}
	score := &data.Column{Name: "score", Kind: data.Int}
	name := &data.Column{Name: "name", Kind: data.String}
	price := &data.Column{Name: "price", Kind: data.Float}
	for i := 0; i < 4; i++ {
		id.AppendInt(int64(i))
		score.AppendInt(int64(i * 10))
		name.AppendString([]string{"ann", "bob", "cal", "dee"}[i])
		price.AppendFloat(float64(i) + 0.5)
	}
	cat.Add(data.NewTable("items", id, score, name, price))
	oid := &data.Column{Name: "id", Kind: data.Int}
	iid := &data.Column{Name: "item_id", Kind: data.Int}
	for i := 0; i < 4; i++ {
		oid.AppendInt(int64(i))
		iid.AppendInt(int64(i))
	}
	cat.Add(data.NewTable("orders", oid, iid))
	return cat
}

func TestParseSimple(t *testing.T) {
	cat := testCatalog()
	q, err := Parse("SELECT COUNT(*) FROM items WHERE items.score > 10;", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Refs) != 1 || q.Refs[0].Table != "items" {
		t.Fatalf("refs = %v", q.Refs)
	}
	if len(q.Preds) != 1 || q.Preds[0].Op != query.Gt || q.Preds[0].Val.I != 10 {
		t.Fatalf("preds = %v", q.Preds)
	}
}

func TestParseJoinAndAlias(t *testing.T) {
	cat := testCatalog()
	q, err := Parse("SELECT COUNT(*) FROM items i, orders o WHERE i.id = o.item_id AND i.score >= 20", cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Joins) != 1 {
		t.Fatalf("joins = %v", q.Joins)
	}
	j := q.Joins[0]
	if j.LeftAlias != "i" || j.RightAlias != "o" || j.RightCol != "item_id" {
		t.Fatalf("join = %+v", j)
	}
	if q.TableOf("i") != "items" || q.TableOf("o") != "orders" {
		t.Fatal("alias binding broken")
	}
}

func TestParseAsAlias(t *testing.T) {
	cat := testCatalog()
	q, err := Parse("SELECT COUNT(*) FROM items AS i WHERE i.score = 0", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Refs[0].Alias != "i" {
		t.Fatalf("alias = %q", q.Refs[0].Alias)
	}
}

// TestParseAsWithoutAlias pins that AS must name an alias: a bare AS
// used to be dropped, so "FROM items AS;" parsed as "FROM items".
func TestParseAsWithoutAlias(t *testing.T) {
	cat := testCatalog()
	for sql, want := range map[string]string{
		"SELECT COUNT(*) FROM items AS;":                       `sqlx: expected alias after AS, got ";" at 29`,
		"SELECT COUNT(*) FROM items AS WHERE items.score > 1;": `sqlx: expected alias after AS, got "WHERE" at 30`,
		"SELECT COUNT(*) FROM items AS":                        `sqlx: expected alias after AS, got <eof> at 29`,
	} {
		if _, err := Parse(sql, cat); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %s", sql, err, want)
		}
	}
}

func TestParseBetween(t *testing.T) {
	cat := testCatalog()
	q, err := Parse("SELECT COUNT(*) FROM items WHERE items.score BETWEEN 10 AND 30", cat)
	if err != nil {
		t.Fatal(err)
	}
	p := q.Preds[0]
	if p.Op != query.Between || p.Val.I != 10 || p.Val2.I != 30 {
		t.Fatalf("pred = %+v", p)
	}
}

func TestParseStringLiteral(t *testing.T) {
	cat := testCatalog()
	q, err := Parse("SELECT COUNT(*) FROM items WHERE items.name = 'bob'", cat)
	if err != nil {
		t.Fatal(err)
	}
	dict := cat.Table("items").Column("name").Dict
	want, _ := dict.Lookup("bob")
	if q.Preds[0].Val.I != want {
		t.Fatalf("string literal code = %d, want %d", q.Preds[0].Val.I, want)
	}
}

func TestParseUnknownStringMapsOutOfDomain(t *testing.T) {
	cat := testCatalog()
	q, err := Parse("SELECT COUNT(*) FROM items WHERE items.name = 'zzz'", cat)
	if err != nil {
		t.Fatal(err)
	}
	dict := cat.Table("items").Column("name").Dict
	if q.Preds[0].Val.I < int64(dict.Len()) {
		t.Fatalf("unknown string should map outside the dictionary, got %d", q.Preds[0].Val.I)
	}
}

func TestParseFloatLiteral(t *testing.T) {
	cat := testCatalog()
	q, err := Parse("SELECT COUNT(*) FROM items WHERE items.price <= 2.5", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Val.K != data.Float || q.Preds[0].Val.F != 2.5 {
		t.Fatalf("float literal = %+v", q.Preds[0].Val)
	}
	// Integer literal against a float column should coerce.
	q2, err := Parse("SELECT COUNT(*) FROM items WHERE items.price <= 2", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Preds[0].Val.K != data.Float {
		t.Fatalf("int literal on float column not coerced: %+v", q2.Preds[0].Val)
	}
	// Scientific notation is how strconv renders large floats, so an
	// accepted query's own SQL form must re-parse (fuzz-found: 1000000.0
	// renders as "1e+06").
	for _, lit := range []string{"1e+06", "1E6", "2.5e-1", "1e06"} {
		q3, err := Parse("SELECT COUNT(*) FROM items WHERE items.price <= "+lit, cat)
		if err != nil {
			t.Fatalf("Parse(%s): %v", lit, err)
		}
		want, _ := strconv.ParseFloat(lit, 64)
		if q3.Preds[0].Val.K != data.Float || q3.Preds[0].Val.F != want {
			t.Fatalf("literal %s = %+v, want %v", lit, q3.Preds[0].Val, want)
		}
		if _, err := Parse(q3.SQL(), cat); err != nil {
			t.Fatalf("re-parse of %q: %v", q3.SQL(), err)
		}
	}
	// A trailing "e" with no exponent digits is not part of the number.
	if _, err := Parse("SELECT COUNT(*) FROM items WHERE items.price <= 1e", cat); err == nil {
		t.Fatal("Parse accepted a bare identifier after a number")
	}
}

func TestParseNotEqualsVariants(t *testing.T) {
	cat := testCatalog()
	for _, sql := range []string{
		"SELECT COUNT(*) FROM items WHERE items.score <> 10",
		"SELECT COUNT(*) FROM items WHERE items.score != 10",
	} {
		q, err := Parse(sql, cat)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if q.Preds[0].Op != query.Ne {
			t.Fatalf("%s: op = %v", sql, q.Preds[0].Op)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cat := testCatalog()
	bad := []string{
		"",
		"SELECT * FROM items",
		"SELECT COUNT(*) FROM",
		"SELECT COUNT(*) FROM items WHERE",
		"SELECT COUNT(*) FROM items WHERE items.score >",
		"SELECT COUNT(*) FROM items WHERE score > 1",           // missing alias
		"SELECT COUNT(*) FROM nosuch WHERE nosuch.x = 1",       // unknown table
		"SELECT COUNT(*) FROM items WHERE items.nosuch = 1",    // unknown column
		"SELECT COUNT(*) FROM items WHERE items.score = 'abc'", // string on int column
		"SELECT COUNT(*) FROM items WHERE items.name = 'oops",  // unterminated
		"SELECT COUNT(*) FROM items WHERE items.score > 1 garbage",
	}
	for _, sql := range bad {
		if _, err := Parse(sql, cat); err == nil {
			t.Errorf("accepted invalid SQL: %s", sql)
		}
	}
}

func TestParseRoundTripThroughSQL(t *testing.T) {
	cat := testCatalog()
	orig := "SELECT COUNT(*) FROM items i, orders o WHERE i.id = o.item_id AND i.score BETWEEN 10 AND 30 AND o.id < 3;"
	q, err := Parse(orig, cat)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.SQL(), cat)
	if err != nil {
		t.Fatalf("re-parsing rendered SQL %q: %v", q.SQL(), err)
	}
	if q.Key() != q2.Key() {
		t.Fatalf("round trip changed query:\n%s\n%s", q.Key(), q2.Key())
	}
}

// lexAll returns every token of src up to EOF, or the first lex error.
func lexAll(src string) ([]token, error) {
	l := lexer{src: src}
	var toks []token
	for {
		t := l.next()
		if l.err != nil {
			return nil, l.err
		}
		if toks = append(toks, t); t.kind == tokEOF {
			return toks, nil
		}
	}
}

func TestLexerEscapedQuote(t *testing.T) {
	for src, want := range map[string]string{
		"'it''s'": "it's", "'a''b''c' x": "a'b'c", "''''": "'", "'plain'": "plain", "''": "", "'x'''": "x'",
	} {
		toks, err := lexAll(src)
		if err != nil {
			t.Fatal(err)
		}
		if toks[0].kind != tokString || toks[0].text != want {
			t.Fatalf("%s: tok = %+v, want %q", src, toks[0], want)
		}
	}
}

func TestLexerNegativeNumber(t *testing.T) {
	cat := testCatalog()
	q, err := Parse("SELECT COUNT(*) FROM items WHERE items.score >= -5", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Val.I != -5 {
		t.Fatalf("negative literal = %v", q.Preds[0].Val)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	cat := testCatalog()
	if _, err := Parse("select count(*) from items where items.score between 1 and 2", cat); err != nil {
		t.Fatal(err)
	}
}

func TestParseManyConditions(t *testing.T) {
	cat := testCatalog()
	var sb strings.Builder
	sb.WriteString("SELECT COUNT(*) FROM items WHERE items.score > 0")
	for i := 0; i < 10; i++ {
		sb.WriteString(" AND items.score < 100")
	}
	q, err := Parse(sb.String(), cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 11 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
}

func TestParseAggregates(t *testing.T) {
	cat := testCatalog()
	q, err := Parse("SELECT SUM(i.score) FROM items i WHERE i.score > 0", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg.Kind != query.AggSum || q.Agg.Alias != "i" || q.Agg.Column != "score" {
		t.Fatalf("agg = %+v", q.Agg)
	}
	for _, sql := range []string{
		"SELECT AVG(items.price) FROM items",
		"SELECT MIN(items.score) FROM items",
		"SELECT MAX(items.score) FROM items",
		"select count(*) from items",
	} {
		if _, err := Parse(sql, cat); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
	bad := []string{
		"SELECT MEDIAN(items.score) FROM items",
		"SELECT SUM(*) FROM items",
		"SELECT SUM(items.nosuch) FROM items",
		"SELECT COUNT(items.score) FROM items",
	}
	for _, sql := range bad {
		if _, err := Parse(sql, cat); err == nil {
			t.Errorf("accepted invalid aggregate: %s", sql)
		}
	}
}

func TestAggregateSQLRoundTrip(t *testing.T) {
	cat := testCatalog()
	q, err := Parse("SELECT MAX(i.price) FROM items i WHERE i.score >= 10", cat)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.SQL(), cat)
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.SQL(), err)
	}
	if q2.Agg != q.Agg {
		t.Fatalf("agg round trip: %+v vs %+v", q2.Agg, q.Agg)
	}
}
