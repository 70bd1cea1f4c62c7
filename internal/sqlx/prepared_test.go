package sqlx

import (
	"math/rand"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

func TestPrepareBindRoundTrip(t *testing.T) {
	cat := testCatalog()
	stmt, err := Prepare("SELECT COUNT(*) FROM items i, orders o WHERE i.id = o.item_id AND i.score > ? AND i.name = ?;", cat)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 2 {
		t.Fatalf("NumParams = %d", stmt.NumParams())
	}
	q, err := stmt.Bind(int64(10), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumParams() != 0 {
		t.Fatalf("bound query still has %d params", q.NumParams())
	}
	// The bound query must equal a direct parse of the same statement
	// with literals inlined — key-identical, hence plan-identical.
	direct, err := Parse("SELECT COUNT(*) FROM items i, orders o WHERE i.id = o.item_id AND i.score > 10 AND i.name = 'bob';", cat)
	if err != nil {
		t.Fatal(err)
	}
	if q.Key() != direct.Key() {
		t.Fatalf("bound key != direct key:\n%s\n%s", q.Key(), direct.Key())
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareBetweenParams(t *testing.T) {
	cat := testCatalog()
	stmt, err := Prepare("SELECT COUNT(*) FROM items WHERE items.score BETWEEN ? AND ?;", cat)
	if err != nil {
		t.Fatal(err)
	}
	q, err := stmt.Bind(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	p := q.Preds[0]
	if p.Op != query.Between || p.Val.I != 10 || p.Val2.I != 30 {
		t.Fatalf("pred = %+v", p)
	}
	// Mixed placeholder/literal BETWEEN.
	stmt2, err := Prepare("SELECT COUNT(*) FROM items WHERE items.score BETWEEN 0 AND ?;", cat)
	if err != nil {
		t.Fatal(err)
	}
	if stmt2.NumParams() != 1 {
		t.Fatalf("NumParams = %d", stmt2.NumParams())
	}
	q2, err := stmt2.Bind(30)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Preds[0].Val.I != 0 || q2.Preds[0].Val2.I != 30 {
		t.Fatalf("pred = %+v", q2.Preds[0])
	}
}

// TestBindGraphMatchesNewJoinGraph: the graph BindGraph returns, the
// template's rebound, keys every sub-query of the binding exactly like a
// graph built from the bound query — over 2 000 bindings of string,
// float-on-int, int-on-float, repeated-column and BETWEEN slots.
func TestBindGraphMatchesNewJoinGraph(t *testing.T) {
	cat := testCatalog()
	stmt, err := Prepare("SELECT COUNT(*) FROM items i, orders o WHERE i.id = o.item_id AND i.name = ? AND i.score > ? AND i.score > ? "+
		"AND i.score BETWEEN ? AND ? AND o.id >= ? AND i.price < ?;", cat)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	num := func() any {
		if rng.Intn(2) == 0 {
			return float64(rng.Intn(8)) / 2 // 1.0 renders like the int 1
		}
		return rng.Intn(4)
	}
	for n := 0; n < 2000; n++ {
		args := []any{[]string{"ann", "bob", "zed"}[rng.Intn(3)], num(), num(), num(), num(), num(), num()}
		q, g, err := stmt.BindGraph(args...)
		if err != nil {
			t.Fatal(err)
		}
		if g.Query() != q {
			t.Fatal("BindGraph paired the graph with another query")
		}
		want := query.NewJoinGraph(q)
		for mask := uint64(0); mask < 4; mask++ {
			if got := g.Key(mask); got != want.Key(mask) {
				t.Fatalf("binding %v mask %b: rebound key %q, built %q", args, mask, got, want.Key(mask))
			}
		}
	}
}

func TestPrepareShapeKey(t *testing.T) {
	cat := testCatalog()
	a, err := Prepare("SELECT COUNT(*) FROM items WHERE items.score > ?;", cat)
	if err != nil {
		t.Fatal(err)
	}
	// Same shape, different whitespace/case: one cache entry.
	b, err := Prepare("select count(*) from items where items.score > ?", cat)
	if err != nil {
		t.Fatal(err)
	}
	if a.ShapeKey() != b.ShapeKey() {
		t.Fatalf("equivalent templates have different shape keys:\n%s\n%s", a.ShapeKey(), b.ShapeKey())
	}
	// Different shape: distinct entries.
	c, err := Prepare("SELECT COUNT(*) FROM items WHERE items.score < ?;", cat)
	if err != nil {
		t.Fatal(err)
	}
	if a.ShapeKey() == c.ShapeKey() {
		t.Fatal("different operators share a shape key")
	}
	// A template's shape key never equals any bound query's key.
	bound, err := a.Bind(10)
	if err != nil {
		t.Fatal(err)
	}
	if a.ShapeKey() == bound.Key() {
		t.Fatal("shape key collides with bound key")
	}
}

func TestPrepareTemplateSQLReprepares(t *testing.T) {
	cat := testCatalog()
	src := "SELECT COUNT(*) FROM items WHERE items.score BETWEEN ? AND ? AND items.price > ?;"
	a, err := Prepare(src, cat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare(a.SQL(), cat)
	if err != nil {
		t.Fatalf("template SQL %q does not re-prepare: %v", a.SQL(), err)
	}
	if a.ShapeKey() != b.ShapeKey() {
		t.Fatalf("re-prepared template changed shape:\n%s\n%s", a.ShapeKey(), b.ShapeKey())
	}
}

func TestBindCoercionAndErrors(t *testing.T) {
	cat := testCatalog()
	stmt, err := Prepare("SELECT COUNT(*) FROM items WHERE items.price > ?;", cat)
	if err != nil {
		t.Fatal(err)
	}
	// Integer arg on a float column coerces to a float literal, exactly
	// like parseLiteral does for "items.price > 1".
	q, err := stmt.Bind(1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Val.K != data.Float || q.Preds[0].Val.F != 1 {
		t.Fatalf("val = %+v", q.Preds[0].Val)
	}
	if _, err := stmt.Bind("nope"); err == nil {
		t.Fatal("string bind on float column accepted")
	}
	if _, err := stmt.Bind(); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := stmt.Bind(1, 2); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := stmt.Bind(struct{}{}); err == nil {
		t.Fatal("unsupported bind type accepted")
	}

	name, err := Prepare("SELECT COUNT(*) FROM items WHERE items.name = ?;", cat)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown dictionary strings bind to an out-of-domain code: the
	// query is valid and matches zero rows, mirroring parsed literals.
	q2, err := name.Bind("zzz-not-present")
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.Validate(cat); err != nil {
		t.Fatal(err)
	}
	if _, err := name.Bind(3.5); err == nil {
		t.Fatal("float bind on text column accepted")
	}
}

func TestParseRejectsBarePlaceholders(t *testing.T) {
	cat := testCatalog()
	if _, err := Parse("SELECT COUNT(*) FROM items WHERE items.score > ?;", cat); err == nil {
		t.Fatal("Parse accepted an unbound placeholder")
	}
}

func TestPrepareWithoutPlaceholders(t *testing.T) {
	cat := testCatalog()
	stmt, err := Prepare("SELECT COUNT(*) FROM items WHERE items.score > 10;", cat)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 0 {
		t.Fatalf("NumParams = %d", stmt.NumParams())
	}
	q, err := stmt.Bind()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
}

// TestCurrentTracksWhatTheParseResolved: a statement stays current while
// its tables are the catalog's and no dictionary a literal was absent from
// has grown; growth elsewhere, or of a dictionary its literals were all
// found in, leaves it current.
func TestCurrentTracksWhatTheParseResolved(t *testing.T) {
	cat := testCatalog()
	present, err := ParseStatement("SELECT COUNT(*) FROM items i, orders o WHERE i.id = o.item_id AND i.name = 'bob';", cat)
	if err != nil {
		t.Fatal(err)
	}
	absent, err := ParseStatement("SELECT COUNT(*) FROM items WHERE items.name = 'eve';", cat)
	if err != nil {
		t.Fatal(err)
	}
	if present.NumParams() != 0 || present.ShapeKey() != present.Query().Key() {
		t.Fatal("a parsed statement is not a parameterless template keyed by its query")
	}
	if !present.Current(cat) || !absent.Current(cat) {
		t.Fatal("fresh statements are not current")
	}
	items := cat.Table("items")
	items.Column("name").AppendString("bob") // present: no growth
	if !absent.Current(cat) {
		t.Fatal("appending a present string made the statement stale")
	}
	items.Column("name").AppendString("fay")
	if !present.Current(cat) {
		t.Fatal("growth of a dictionary the literal was found in made the statement stale")
	}
	if absent.Current(cat) {
		t.Fatal("growth of the dictionary the literal was absent from left the statement current")
	}
	cat.Add(data.NewTable("orders", items.Cols...))
	if present.Current(cat) {
		t.Fatal("replacing a referenced table left the statement current")
	}
	if _, err := ParseStatement("SELECT COUNT(*) FROM items WHERE items.score > ?;", cat); err == nil {
		t.Fatal("ParseStatement accepted a placeholder")
	}
}
