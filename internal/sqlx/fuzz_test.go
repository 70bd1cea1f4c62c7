package sqlx

import (
	"sort"
	"testing"
	"unicode/utf8"

	"lqo/internal/query"
)

// parseSeeds are FuzzParse's seed texts; the parser identity golden
// (golden_test.go) records them too.
var parseSeeds = []string{
	"SELECT COUNT(*) FROM items;",
	"SELECT COUNT(*) FROM items WHERE items.score > 10;",
	"SELECT COUNT(*) FROM items, orders WHERE items.id = orders.item_id AND items.price >= 1.5;",
	"SELECT COUNT(*) FROM items i, orders o WHERE i.id = o.item_id AND i.name = 'ann';",
	"SELECT COUNT(*) FROM items WHERE items.score BETWEEN 0 AND 30;",
	// Malformed shapes that must error, not crash.
	"",
	";",
	"SELECT",
	"SELECT COUNT(*) FROM",
	"SELECT COUNT(*) FROM items WHERE",
	"SELECT COUNT(*) FROM items WHERE items.score >",
	"SELECT COUNT(*) FROM nosuch;",
	"SELECT COUNT(*) FROM items WHERE items.nosuch = 1;",
	"SELECT COUNT(*) FROM items WHERE items.name = 'unterminated",
	"SELECT COUNT(*) FROM items WHERE items.score = 99999999999999999999999999;",
	"select count(*) from items where items.score != 10;",
	"SELECT * FROM items",
	"\x00\xff\xfe",
	"SELECT COUNT(*) FROM items -- comment",
}

// FuzzParse pins the parser's robustness contract: arbitrary input —
// malformed SQL, truncated tokens, garbage bytes — either parses into a
// query that satisfies basic invariants or returns an error. It must
// never panic; the parser sits on the middleware's user-facing boundary
// where a crash would take the whole database down.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	cat := testCatalog()
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql, cat)
		if err != nil {
			return // rejection is fine; panicking is the only failure
		}
		if q == nil {
			t.Fatalf("Parse(%q) returned nil query and nil error", sql)
		}
		if len(q.Refs) == 0 {
			t.Fatalf("Parse(%q) accepted a query with no table refs", sql)
		}
		// Accepted queries must round-trip through their own SQL form.
		if utf8.ValidString(sql) {
			if _, err := Parse(q.SQL(), cat); err != nil {
				t.Fatalf("accepted query does not re-parse: %q -> %q: %v", sql, q.SQL(), err)
			}
		}
		// Key construction must be total and deterministic on anything
		// the parser accepts.
		if q.Key() != q.Clone().Key() {
			t.Fatalf("Key not deterministic for %q", sql)
		}
		// Prepare must never panic on parser-accepted input either, and
		// both statement forms are keyed by the query's Key.
		pr, err := Prepare(sql, cat)
		if err != nil {
			t.Fatalf("Parse accepted but Prepare rejected %q: %v", sql, err)
		}
		st, _, err := ParseStatement(sql, cat)
		if err != nil {
			t.Fatalf("Parse accepted but ParseStatement rejected %q: %v", sql, err)
		}
		if pr.ShapeKey() != q.Key() || st.ShapeKey() != q.Key() {
			t.Fatalf("%q: shape keys %q and %q, Key %q", sql, pr.ShapeKey(), st.ShapeKey(), q.Key())
		}
	})
}

// canonQuery is a key-independent canonical form of a query's
// cardinality-relevant content: sorted refs, side-normalized sorted
// joins, sorted predicates with values in CanonNum form. It is the
// oracle FuzzKeyUniqueness checks Query.Key against — built from plain
// struct fields, deliberately NOT from the KeyBuilder encoding, so an
// encoding bug (delimiter injection, numeric drift) cannot hide in the
// oracle too.
func canonQuery(q *query.Query) [][4]string {
	var out [][4]string
	for _, r := range q.Refs {
		out = append(out, [4]string{"r", r.Alias, r.Table, ""})
	}
	for _, j := range q.Joins {
		l := [2]string{j.LeftAlias, j.LeftCol}
		r := [2]string{j.RightAlias, j.RightCol}
		if l[0] > r[0] || (l[0] == r[0] && l[1] > r[1]) {
			l, r = r, l
		}
		out = append(out, [4]string{"j", l[0] + "\x00" + l[1], r[0] + "\x00" + r[1], ""})
	}
	for _, p := range q.Preds {
		v := query.CanonNum(p.Val)
		if p.Op == query.Between {
			v += "\x00" + query.CanonNum(p.Val2)
		}
		out = append(out, [4]string{"p", p.Alias + "\x00" + p.Column, p.Op.String(), v})
	}
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < 4; k++ {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

func canonEqual(a, b [][4]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzKeyUniqueness pins the cache-key contract both ways: two parsed
// queries share a Key exactly when their canonical content is equal.
// A collision (equal keys, different content) is the wrong-results
// cache-poisoning bug; a split (different keys, equal content) silently
// halves cache hit rates.
func FuzzKeyUniqueness(f *testing.F) {
	pairs := [][2]string{
		{"SELECT COUNT(*) FROM items WHERE items.score > 10;",
			"SELECT COUNT(*) FROM items WHERE items.score > 11;"},
		{"SELECT COUNT(*) FROM items WHERE items.score > 10;",
			"SELECT COUNT(*) FROM items WHERE items.score >= 10;"},
		{"SELECT COUNT(*) FROM items WHERE items.score > 10;",
			"SELECT COUNT(*) FROM items WHERE items.score > 10.0;"},
		{"SELECT COUNT(*) FROM items i, orders o WHERE i.id = o.item_id;",
			"SELECT COUNT(*) FROM orders o, items i WHERE o.item_id = i.id;"},
		{"SELECT COUNT(*) FROM items WHERE items.name = 'ann';",
			"SELECT COUNT(*) FROM items WHERE items.name = 'bob';"},
		{"SELECT COUNT(*) FROM items WHERE items.score BETWEEN 1 AND 9;",
			"SELECT COUNT(*) FROM items WHERE items.score BETWEEN 1 AND 8;"},
		{"SELECT SUM(items.score) FROM items WHERE items.score > 10;",
			"SELECT COUNT(*) FROM items WHERE items.score > 10;"},
	}
	for _, p := range pairs {
		f.Add(p[0], p[1])
	}
	cat := testCatalog()
	f.Fuzz(func(t *testing.T, sqlA, sqlB string) {
		qa, errA := Parse(sqlA, cat)
		qb, errB := Parse(sqlB, cat)
		if errA != nil || errB != nil {
			return
		}
		keysEqual := qa.Key() == qb.Key()
		contentEqual := canonEqual(canonQuery(qa), canonQuery(qb))
		if keysEqual && !contentEqual {
			t.Fatalf("key collision between distinct queries:\n%q\n%q\nkey: %s", sqlA, sqlB, qa.Key())
		}
		if !keysEqual && contentEqual {
			t.Fatalf("equivalent queries got distinct keys:\n%q -> %s\n%q -> %s", sqlA, qa.Key(), sqlB, qb.Key())
		}
	})
}
