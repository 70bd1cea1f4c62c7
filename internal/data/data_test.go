package data

import (
	"testing"
	"testing/quick"
)

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	words := []string{"alpha", "beta", "gamma", "alpha", "beta"}
	codes := make([]int64, len(words))
	for i, w := range words {
		codes[i] = d.Code(w)
	}
	if codes[0] != codes[3] || codes[1] != codes[4] {
		t.Fatalf("re-interning changed codes: %v", codes)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	for i, w := range words {
		if got := d.Str(codes[i]); got != w {
			t.Errorf("Str(%d) = %q, want %q", codes[i], got, w)
		}
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Error("Lookup(missing) reported present")
	}
	if d.Str(99) != "" {
		t.Error("Str out of range should be empty")
	}
}

func TestDictCodesAreDense(t *testing.T) {
	err := quick.Check(func(words []string) bool {
		d := NewDict()
		for _, w := range words {
			c := d.Code(w)
			if c < 0 || c >= int64(d.Len()) {
				return false
			}
			if d.Str(c) != w {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestValueCompareAndFloat(t *testing.T) {
	if IntVal(3).Compare(IntVal(5)) != -1 {
		t.Error("3 < 5 failed")
	}
	if FloatVal(2.5).Compare(IntVal(2)) != 1 {
		t.Error("2.5 > 2 failed")
	}
	if IntVal(7).Compare(FloatVal(7)) != 0 {
		t.Error("7 == 7.0 failed")
	}
	if got := IntVal(4).AsFloat(); got != 4 {
		t.Errorf("AsFloat = %v", got)
	}
}

func newTestTable(t *testing.T) *Table {
	t.Helper()
	a := &Column{Name: "a", Kind: Int}
	b := &Column{Name: "b", Kind: Float}
	s := &Column{Name: "s", Kind: String}
	for i := 0; i < 10; i++ {
		a.AppendInt(int64(i % 3))
		b.AppendFloat(float64(i) / 2)
		s.AppendString([]string{"x", "y"}[i%2])
	}
	tbl := NewTable("t", a, b, s)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestTableBasics(t *testing.T) {
	tbl := newTestTable(t)
	if tbl.NumRows() != 10 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	if tbl.Column("a") == nil || tbl.Column("missing") != nil {
		t.Fatal("Column lookup broken")
	}
	want := []string{"a", "b", "s"}
	for i := range want {
		if got := tbl.Cols[i].Name; got != want[i] {
			t.Fatalf("column %d is %q, want %q", i, got, want[i])
		}
	}
}

func TestColumnMinMax(t *testing.T) {
	tbl := newTestTable(t)
	a := tbl.Column("a")
	lo, hi, ok := a.MinMax()
	if !ok || lo != 0 || hi != 2 {
		t.Fatalf("MinMax = %v %v %v", lo, hi, ok)
	}
	if lo, hi, ok := tbl.Column("b").MinMax(); !ok || lo != 0 || hi != 4.5 {
		t.Fatalf("float MinMax = %v %v %v", lo, hi, ok)
	}
	empty := &Column{Name: "e", Kind: Int}
	if _, _, ok := empty.MinMax(); ok {
		t.Fatal("empty MinMax should report !ok")
	}
}

func TestIndexRows(t *testing.T) {
	tbl := newTestTable(t)
	ix, err := tbl.BuildIndex("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.rows) != 3 {
		t.Fatalf("%d distinct keys, want 3", len(ix.rows))
	}
	rows := ix.Rows(1)
	// Values 1 occur at rows 1, 4, 7.
	want := []int32{1, 4, 7}
	if len(rows) != len(want) {
		t.Fatalf("Rows(1) = %v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("Rows(1) = %v, want %v", rows, want)
		}
	}
	if tbl.Index("a") != ix {
		t.Fatal("Index not registered")
	}
	if _, err := tbl.BuildIndex("b"); err == nil {
		t.Fatal("float index should fail")
	}
	if _, err := tbl.BuildIndex("nope"); err == nil {
		t.Fatal("missing column index should fail")
	}
}

func TestIndexCoversAllRows(t *testing.T) {
	err := quick.Check(func(vals []int16) bool {
		c := &Column{Name: "v", Kind: Int}
		for _, v := range vals {
			c.AppendInt(int64(v))
		}
		tbl := NewTable("q", c)
		ix, err := tbl.BuildIndex("v")
		if err != nil {
			return false
		}
		// Every row id must be reachable exactly once through its value.
		seen := map[int32]bool{}
		for _, v := range vals {
			for _, r := range ix.Rows(int64(v)) {
				seen[r] = true
			}
		}
		return len(seen) == len(vals)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	tbl := newTestTable(t)
	cat.Add(tbl)
	if cat.Table("t") != tbl || cat.Table("x") != nil {
		t.Fatal("catalog lookup broken")
	}
	if cat.TotalRows() != 10 {
		t.Fatalf("TotalRows = %d", cat.TotalRows())
	}
	names := cat.TableNames()
	if len(names) != 1 || names[0] != "t" {
		t.Fatalf("TableNames = %v", names)
	}
	// Replacement keeps a single entry.
	cat.Add(NewTable("t"))
	if len(cat.TableNames()) != 1 {
		t.Fatal("duplicate name added twice")
	}
}

func TestValidateCatchesRaggedColumns(t *testing.T) {
	a := &Column{Name: "a", Kind: Int}
	b := &Column{Name: "b", Kind: Int}
	a.AppendInt(1)
	tbl := NewTable("bad", a, b)
	if err := tbl.Validate(); err == nil {
		t.Fatal("Validate should fail on ragged columns")
	}
}

func TestAddColumnDuplicateErrors(t *testing.T) {
	tbl := NewTable("t", &Column{Name: "a", Kind: Int})
	if err := tbl.AddColumn(&Column{Name: "a", Kind: Int}); err == nil {
		t.Fatal("expected error on duplicate column")
	}
	if err := tbl.AddColumn(&Column{Name: "b", Kind: Int}); err != nil {
		t.Fatalf("fresh column should add cleanly: %v", err)
	}
	if tbl.Column("b") == nil {
		t.Fatal("column b should exist after AddColumn")
	}
}

// TestCatalogPin: a Pin keeps the state it was taken in while the live
// catalog moves on, shares its foreign keys, and an Add to a Pin moves
// that catalog alone.
func TestCatalogPin(t *testing.T) {
	cat := NewCatalog()
	t1 := NewTable("t", &Column{Name: "a", Kind: Int})
	cat.Add(t1)
	pin := cat.Pin()
	if pin.Generation() != cat.Generation() || pin.Table("t") != t1 || pin.Pin() != pin {
		t.Fatal("a fresh pin is not the catalog's present state")
	}
	t2 := NewTable("t", &Column{Name: "a", Kind: Int})
	cat.Add(t2)
	if pin.Table("t") != t1 || cat.Table("t") != t2 || pin.Generation() == cat.Generation() {
		t.Fatal("an Add to the live catalog moved its pin")
	}
	cat.DeclareFK("t", "a", "u", "id")
	if len(pin.FKs()) != 1 {
		t.Fatalf("pin FKs %v, want the live catalog's", pin.FKs())
	}
	pin.Add(NewTable("u", &Column{Name: "id", Kind: Int}))
	if cat.Table("u") != nil || pin.Table("u") == nil || pin.Table("t") != t1 {
		t.Fatal("an Add to a pin did not move the pin alone")
	}
}
