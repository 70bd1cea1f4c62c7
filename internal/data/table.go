package data

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Column is a typed, fully materialized column. Int and dictionary-encoded
// String columns store values in Ints; Float columns in Floats.
type Column struct {
	Name string
	Kind Kind
	Ints []int64
	Flts []float64
	Dict *Dict // non-nil iff Kind == String

	// Lazily built, atomically published summaries (see zonemap.go).
	// Append* invalidates all three.
	zones    atomic.Pointer[ZoneMap]
	mm       atomic.Pointer[minMaxCache]
	distinct atomic.Pointer[int64]
}

// Len returns the number of values stored.
func (c *Column) Len() int {
	if c.Kind == Float {
		return len(c.Flts)
	}
	return len(c.Ints)
}

// Value returns the value at row i.
func (c *Column) Value(i int) Value {
	if c.Kind == Float {
		return Value{K: Float, F: c.Flts[i]}
	}
	return Value{K: c.Kind, I: c.Ints[i]}
}

// Float returns the value at row i in the numeric domain.
func (c *Column) Float(i int) float64 {
	if c.Kind == Float {
		return c.Flts[i]
	}
	return float64(c.Ints[i])
}

// AppendInt appends v; the column must not be a Float column.
func (c *Column) AppendInt(v int64) {
	c.Ints = append(c.Ints, v)
	c.invalidate()
}

// AppendFloat appends v; the column must be a Float column.
func (c *Column) AppendFloat(v float64) {
	c.Flts = append(c.Flts, v)
	c.invalidate()
}

// AppendString interns s and appends its code; the column must be a String
// column.
func (c *Column) AppendString(s string) {
	if c.Dict == nil {
		c.Dict = NewDict()
	}
	c.Ints = append(c.Ints, c.Dict.Code(s))
	c.invalidate()
}

// MinMax returns the smallest and largest value in the numeric domain.
// ok is false for an empty column. The result is cached; Append*
// invalidates it.
func (c *Column) MinMax() (lo, hi float64, ok bool) {
	if s := c.mm.Load(); s != nil {
		return s.lo, s.hi, s.ok
	}
	s := &minMaxCache{}
	if n := c.Len(); n > 0 {
		s.lo, s.hi, s.ok = c.Float(0), c.Float(0), true
		for i := 1; i < n; i++ {
			v := c.Float(i)
			if v < s.lo {
				s.lo = v
			}
			if v > s.hi {
				s.hi = v
			}
		}
	}
	c.mm.Store(s)
	return s.lo, s.hi, s.ok
}

// DistinctCount returns the exact number of distinct values. The result
// is cached; Append* invalidates it.
func (c *Column) DistinctCount() int {
	if d := c.distinct.Load(); d != nil {
		return int(*d)
	}
	var n int
	if c.Kind == Float {
		seen := make(map[float64]struct{}, len(c.Flts))
		for _, v := range c.Flts {
			seen[v] = struct{}{}
		}
		n = len(seen)
	} else {
		seen := make(map[int64]struct{}, len(c.Ints))
		for _, v := range c.Ints {
			seen[v] = struct{}{}
		}
		n = len(seen)
	}
	d := int64(n)
	c.distinct.Store(&d)
	return n
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name   string
	Cols   []*Column
	byName map[string]int
	idx    map[string]*Index
}

// NewTable creates an empty table with the given column definitions.
func NewTable(name string, cols ...*Column) *Table {
	t := &Table{Name: name, Cols: cols, byName: make(map[string]int), idx: make(map[string]*Index)}
	for i, c := range cols {
		t.byName[c.Name] = i
	}
	return t
}

// AddColumn appends a column definition. A duplicate column name is
// reported as an error (it used to panic): schema loaders feed this from
// external input, and malformed input must degrade to an error the caller
// can surface, never crash the process.
func (t *Table) AddColumn(c *Column) error {
	if _, dup := t.byName[c.Name]; dup {
		return fmt.Errorf("data: duplicate column %s.%s", t.Name, c.Name)
	}
	t.byName[c.Name] = len(t.Cols)
	t.Cols = append(t.Cols, c)
	return nil
}

// Column returns the named column, or nil if absent.
func (t *Table) Column(name string) *Column {
	i, ok := t.byName[name]
	if !ok {
		return nil
	}
	return t.Cols[i]
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	return names
}

// NumRows returns the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Validate checks that all columns have equal length.
func (t *Table) Validate() error {
	n := t.NumRows()
	for _, c := range t.Cols {
		if c.Len() != n {
			return fmt.Errorf("data: table %s column %s has %d rows, want %d", t.Name, c.Name, c.Len(), n)
		}
	}
	return nil
}

// Index is a value → sorted row-id mapping over a single column, used by
// index scans and hash-join builds on base tables.
type Index struct {
	Col  string
	rows map[int64][]int32
	n    int // the column's length when indexed
}

// BuildIndex constructs (or rebuilds) an equality index over the named
// column and registers it on the table. Float columns cannot be indexed.
func (t *Table) BuildIndex(col string) (*Index, error) {
	c := t.Column(col)
	if c == nil {
		return nil, fmt.Errorf("data: no column %s.%s", t.Name, col)
	}
	if c.Kind == Float {
		return nil, fmt.Errorf("data: cannot index float column %s.%s", t.Name, col)
	}
	ix := &Index{Col: col, rows: make(map[int64][]int32), n: len(c.Ints)}
	for i, v := range c.Ints {
		ix.rows[v] = append(ix.rows[v], int32(i))
	}
	t.idx[col] = ix
	return ix, nil
}

// Index returns the index on col, or nil.
func (t *Table) Index(col string) *Index {
	return t.idx[col]
}

// Rows returns the row ids holding value v (sorted ascending).
func (ix *Index) Rows(v int64) []int32 { return ix.rows[v] }

// NumRows returns how many rows of the column the index covers: rows
// appended since BuildIndex are not in it.
func (ix *Index) NumRows() int { return ix.n }

// NumKeys returns the number of distinct indexed keys.
func (ix *Index) NumKeys() int { return len(ix.rows) }

// FK is a declared foreign-key relationship between two table columns.
type FK struct {
	Table, Column       string
	RefTable, RefColumn string
}

// Catalog is a named set of tables; the unit a query executes against.
// Lookups do not race with another goroutine's Add, which publishes a new
// snapshot of the name map rather than writing the one readers hold; but
// two lookups may read two snapshots. A reader whose lookups must agree
// (a parse and the binding of its plan) makes them in one Pin.
type Catalog struct {
	mu   sync.Mutex // serializes Add
	snap atomic.Pointer[catalogSnap]
	fks  []FK
	live *Catalog // a pinned state's catalog (Pin); nil for a live one
}

// catalogSnap is one published state of a catalog's tables.
type catalogSnap struct {
	tables map[string]*Table
	order  []string
	gen    uint64
	pinned *Catalog // this state as a catalog of its own
}

// generations numbers catalog states: no two states, of one catalog or of
// two, share a Generation.
var generations atomic.Uint64

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	cat := &Catalog{}
	cat.publish(&catalogSnap{tables: make(map[string]*Table)})
	return cat
}

// publish makes s the catalog's present state, at a new Generation.
func (cat *Catalog) publish(s *catalogSnap) {
	s.gen = generations.Add(1)
	s.pinned = &Catalog{live: cat.root()}
	s.pinned.snap.Store(s)
	cat.snap.Store(s)
}

// root is the live catalog: cat itself, or the one cat is a state of.
func (cat *Catalog) root() *Catalog {
	if cat.live != nil {
		return cat.live
	}
	return cat
}

// DeclareFK records a foreign-key relationship. Schema-aware components
// (join-edge derivation, workload generation) consult declared FKs before
// falling back to naming heuristics.
func (cat *Catalog) DeclareFK(table, column, refTable, refColumn string) {
	cat = cat.root()
	cat.fks = append(cat.fks, FK{table, column, refTable, refColumn})
}

// FKs returns the declared foreign keys in declaration order.
func (cat *Catalog) FKs() []FK {
	fks := cat.root().fks
	out := make([]FK, len(fks))
	copy(out, fks)
	return out
}

// Add registers a table, replacing any previous table of the same name,
// and moves the catalog to its next Generation. An Add to a Pin moves that
// catalog alone.
func (cat *Catalog) Add(t *Table) {
	cat.mu.Lock()
	defer cat.mu.Unlock()
	old := cat.snap.Load()
	next := &catalogSnap{tables: maps.Clone(old.tables), order: old.order}
	if _, ok := old.tables[t.Name]; !ok {
		next.order = append(slices.Clip(old.order), t.Name)
	}
	next.tables[t.Name] = t
	cat.publish(next)
}

// Generation identifies the catalog's present state; every Add moves it
// to a number no catalog has had. Add is the only way a name comes to
// resolve to another table (appended rows keep every table, column and
// dictionary the same object), so whatever was resolved by name in a
// catalog of some generation holds while that is the generation.
func (cat *Catalog) Generation() uint64 { return cat.snap.Load().gen }

// Pin returns the catalog's present state as a catalog that no Add to cat
// moves: its Generation and every lookup stay what they are now, and its
// foreign keys are the live catalog's. A request that parses against a Pin and
// binds its plan against the same Pin reads one state of the tables.
func (cat *Catalog) Pin() *Catalog { return cat.snap.Load().pinned }

// Table returns the named table, or nil.
func (cat *Catalog) Table(name string) *Table { return cat.snap.Load().tables[name] }

// TableNames returns registered table names in insertion order.
func (cat *Catalog) TableNames() []string {
	return slices.Clone(cat.snap.Load().order)
}

// TotalRows returns the sum of row counts over all tables.
func (cat *Catalog) TotalRows() int {
	snap, n := cat.snap.Load(), 0
	for _, name := range snap.order {
		n += snap.tables[name].NumRows()
	}
	return n
}

// SortedDistinct returns the sorted distinct values of an Int/String column
// in the numeric domain. It is used by histogram builders and the
// auto-regressive estimators' domain binning.
func SortedDistinct(c *Column) []float64 {
	seen := make(map[float64]struct{})
	n := c.Len()
	for i := 0; i < n; i++ {
		seen[c.Float(i)] = struct{}{}
	}
	out := make([]float64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}
