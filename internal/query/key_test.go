package query

import (
	"strings"
	"testing"

	"lqo/internal/data"
)

// The adversarial pairs below collide under the pre-canonical key
// formats (bare ","/"|"/";" delimiters around raw component strings) and
// must be distinct under the length-prefixed KeyBuilder encoding. They
// are the regression suite for the delimiter-injection bug family.

func TestKeyRefDelimiterInjection(t *testing.T) {
	// Old format rendered refs as alias+":"+table joined by ",":
	// {a, "t,x:u"} → "a:t,x:u" — identical to {a,t},{x,u}.
	q1 := &Query{Refs: []TableRef{{Alias: "a", Table: "t,x:u"}}}
	q2 := &Query{Refs: []TableRef{{Alias: "a", Table: "t"}, {Alias: "x", Table: "u"}}}
	if q1.Key() == q2.Key() {
		t.Fatalf("ref delimiter injection collides: %q", q1.Key())
	}
}

func TestKeyPredDelimiterInjection(t *testing.T) {
	// Old format joined Pred.String() values with ",": a column name
	// containing " = 1,a.y" spliced one predicate into two.
	base := []TableRef{{Alias: "a", Table: "t"}}
	q1 := &Query{Refs: base, Preds: []Pred{
		{Alias: "a", Column: "x = 1,a.y", Op: Eq, Val: data.IntVal(2)},
	}}
	q2 := &Query{Refs: base, Preds: []Pred{
		{Alias: "a", Column: "x", Op: Eq, Val: data.IntVal(1)},
		{Alias: "a", Column: "y", Op: Eq, Val: data.IntVal(2)},
	}}
	if q1.Key() == q2.Key() {
		t.Fatalf("pred delimiter injection collides: %q", q1.Key())
	}
}

func TestKeyJoinDelimiterInjection(t *testing.T) {
	// Old format rendered joins as "a.c=b.d" with raw "." and "=": an
	// alias containing either spliced one edge into another.
	base := []TableRef{{Alias: "a", Table: "t"}, {Alias: "b", Table: "u"}}
	q1 := &Query{Refs: base, Joins: []Join{
		{LeftAlias: "a", LeftCol: "x=b.y", RightAlias: "b", RightCol: "z"},
	}}
	q2 := &Query{Refs: base, Joins: []Join{
		{LeftAlias: "a", LeftCol: "x", RightAlias: "b", RightCol: "y=b.z"},
	}}
	if q1.Key() == q2.Key() {
		t.Fatalf("join delimiter injection collides: %q", q1.Key())
	}
}

func TestKeySectionInjection(t *testing.T) {
	// Old format separated refs/joins/preds sections with bare "|": a
	// table name containing "|" shifted content across sections.
	q1 := &Query{Refs: []TableRef{{Alias: "a", Table: "t|"}}}
	q2 := &Query{Refs: []TableRef{{Alias: "a", Table: "t"}}}
	if q1.Key() == q2.Key() {
		t.Fatalf("section delimiter injection collides: %q", q1.Key())
	}
}

func TestKeyNumericCanonicalization(t *testing.T) {
	base := []TableRef{{Alias: "a", Table: "t"}}
	mk := func(v data.Value) *Query {
		return &Query{Refs: base, Preds: []Pred{{Alias: "a", Column: "x", Op: Gt, Val: v}}}
	}
	// The same number reached as an int literal and a float literal must
	// share a key: FormatFloat 'g' renders 1e6 as "1e+06" while the int
	// path renders "1000000", so the old keys drifted apart.
	if mk(data.IntVal(1000000)).Key() != mk(data.FloatVal(1e6)).Key() {
		t.Fatalf("1000000 vs 1e+06 drift: %q vs %q",
			mk(data.IntVal(1000000)).Key(), mk(data.FloatVal(1e6)).Key())
	}
	if strings.Contains(mk(data.FloatVal(1e6)).Key(), "e+") {
		t.Fatalf("canonical key still uses exponent form: %q", mk(data.FloatVal(1e6)).Key())
	}
	// Distinct numbers stay distinct.
	if mk(data.FloatVal(1.5)).Key() == mk(data.FloatVal(2.5)).Key() {
		t.Fatal("distinct float literals collide")
	}
	// Beyond 2^53 the int and float paths have genuinely different match
	// semantics (MatchesInt is exact; floats conflate adjacent keys), so
	// those keys must NOT merge.
	big := int64(1) << 60
	if mk(data.IntVal(big)).Key() == mk(data.FloatVal(float64(big))).Key() {
		t.Fatal("exact int64 beyond 2^53 merged with its lossy float rendering")
	}
}

func TestCanonNum(t *testing.T) {
	cases := []struct {
		v    data.Value
		want string
	}{
		{data.IntVal(42), "42"},
		{data.IntVal(-7), "-7"},
		{data.FloatVal(42), "42"},
		{data.FloatVal(-7), "-7"},
		{data.FloatVal(1e6), "1000000"},
		{data.FloatVal(0.5), "0.5"},
		{data.FloatVal(-0.0), "0"},
		{data.Value{K: data.String, I: 9}, "9"}, // dictionary code
	}
	for _, c := range cases {
		if got := CanonNum(c.v); got != c.want {
			t.Errorf("CanonNum(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestKeyBuilderAtomPrefixFree(t *testing.T) {
	// The classic length-prefix property: ("ab","c") vs ("a","bc") must
	// encode differently even though the concatenated content is equal.
	var k1, k2 KeyBuilder
	k1.Atom("ab").Atom("c")
	k2.Atom("a").Atom("bc")
	if k1.String() == k2.String() {
		t.Fatalf("atom encoding is not prefix-free: %q", k1.String())
	}
}

func TestKeyOrderInvarianceSurvivesEncoding(t *testing.T) {
	// The canonical encoding must preserve Key's clause-order invariance.
	q1 := &Query{
		Refs:  []TableRef{{Alias: "a", Table: "t"}, {Alias: "b", Table: "u"}},
		Joins: []Join{{LeftAlias: "a", LeftCol: "x", RightAlias: "b", RightCol: "y"}},
		Preds: []Pred{
			{Alias: "a", Column: "x", Op: Gt, Val: data.IntVal(1)},
			{Alias: "b", Column: "y", Op: Lt, Val: data.IntVal(9)},
		},
	}
	q2 := q1.Clone()
	q2.Refs[0], q2.Refs[1] = q2.Refs[1], q2.Refs[0]
	q2.Joins[0] = Join{LeftAlias: "b", LeftCol: "y", RightAlias: "a", RightCol: "x"}
	q2.Preds[0], q2.Preds[1] = q2.Preds[1], q2.Preds[0]
	if q1.Key() != q2.Key() {
		t.Fatalf("Key lost order invariance:\n%s\n%s", q1.Key(), q2.Key())
	}
}

func TestKeyParamShape(t *testing.T) {
	base := []TableRef{{Alias: "a", Table: "t"}}
	tmpl := &Query{Refs: base, Preds: []Pred{{Alias: "a", Column: "x", Op: Gt, Param: 1}}}
	bound := &Query{Refs: base, Preds: []Pred{{Alias: "a", Column: "x", Op: Gt, Val: data.IntVal(5)}}}
	if tmpl.Key() == bound.Key() {
		t.Fatal("template shape key collides with a bound query key")
	}
}

func TestValidateRejectsUnboundParams(t *testing.T) {
	cat := twoTableCatalog()
	q := &Query{
		Refs:  []TableRef{{Alias: "t1", Table: "t1"}},
		Preds: []Pred{{Alias: "t1", Column: "id", Op: Eq, Param: 1}},
	}
	if err := q.Validate(cat); err == nil {
		t.Fatal("Validate accepted an unbound parameter")
	}
	if err := q.ValidateShape(cat); err != nil {
		t.Fatalf("ValidateShape rejected a valid template: %v", err)
	}
}
