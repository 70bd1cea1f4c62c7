package datagen

import (
	"testing"

	"lqo/internal/data"
)

// colMax returns the maximum int value of a column (0 if empty).
func colMax(c *data.Column) int64 {
	mx := int64(0)
	for i, v := range c.Ints {
		if i == 0 || v > mx {
			mx = v
		}
	}
	return mx
}

// snapshotInts copies every int column of every table so tests can compare
// pre- and post-drift contents.
func snapshotInts(cat *data.Catalog) map[string]map[string][]int64 {
	out := map[string]map[string][]int64{}
	for _, name := range cat.TableNames() {
		t := cat.Table(name)
		cols := map[string][]int64{}
		for _, c := range t.Cols {
			if c.Kind == data.Int {
				cols[c.Name] = append([]int64(nil), c.Ints...)
			}
		}
		out[name] = cols
	}
	return out
}

func TestApplyDriftDeterministic(t *testing.T) {
	for _, opts := range []DriftOptions{
		{Seed: 7, Fraction: 0.3, ValueSkew: 2.5},
		{Seed: 7, Fraction: 0.3, DomainShift: 0.5},
		{Seed: 7, Fraction: 0.3, ValueSkew: 2, DomainShift: 0.3},
	} {
		a := StatsCEB(Config{Seed: 11, Scale: 0.05})
		b := StatsCEB(Config{Seed: 11, Scale: 0.05})
		ApplyDrift(a, opts)
		ApplyDrift(b, opts)
		for _, name := range a.TableNames() {
			ta, tb := a.Table(name), b.Table(name)
			if ta.NumRows() != tb.NumRows() {
				t.Fatalf("%+v: %s row counts differ: %d vs %d", opts, name, ta.NumRows(), tb.NumRows())
			}
			for i, c := range ta.Cols {
				cb := tb.Cols[i]
				for j := range c.Ints {
					if c.Ints[j] != cb.Ints[j] {
						t.Fatalf("%+v: %s.%s[%d] differs: %d vs %d", opts, name, c.Name, j, c.Ints[j], cb.Ints[j])
					}
				}
				for j := range c.Flts {
					if c.Flts[j] != cb.Flts[j] {
						t.Fatalf("%+v: %s.%s[%d] differs: %g vs %g", opts, name, c.Name, j, c.Flts[j], cb.Flts[j])
					}
				}
			}
		}
	}
}

func TestApplyDriftGrowsByFraction(t *testing.T) {
	cat := StatsCEB(Config{Seed: 3, Scale: 0.05})
	before := map[string]int{}
	for _, name := range cat.TableNames() {
		before[name] = cat.Table(name).NumRows()
	}
	ApplyDrift(cat, DriftOptions{Seed: 5, Fraction: 0.4, ValueSkew: 2})
	for _, name := range cat.TableNames() {
		tb := cat.Table(name)
		want := before[name] + int(float64(before[name])*0.4)
		if tb.NumRows() != want {
			t.Errorf("%s: got %d rows, want %d", name, tb.NumRows(), want)
		}
		if err := tb.Validate(); err != nil {
			t.Errorf("%s invalid after drift: %v", name, err)
		}
	}
}

func TestApplyDriftZeroFractionNoopWithModes(t *testing.T) {
	cat := StatsCEB(Config{Seed: 3, Scale: 0.05})
	before := snapshotInts(cat)
	ApplyDrift(cat, DriftOptions{Seed: 5, Fraction: 0, ValueSkew: 3, DomainShift: 0.9})
	after := snapshotInts(cat)
	for name, cols := range before {
		for cn, vals := range cols {
			got := after[name][cn]
			if len(got) != len(vals) {
				t.Fatalf("%s.%s length changed: %d -> %d", name, cn, len(vals), len(got))
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("%s.%s[%d] mutated by no-op drift", name, cn, i)
				}
			}
		}
	}
}

// The legacy growth path (Fraction only) must be byte-identical to
// earlier releases at the same seed: enabling the new modes must be the
// ONLY thing that changes the RNG draw sequence. We check this by asserting
// that a legacy run is unaffected by code restructuring: two catalogs
// drifted with identical legacy options agree (covered above), and that a
// skewed run actually differs from a legacy run (the modes do something).
func TestApplyDriftModesChangeOutput(t *testing.T) {
	legacy := StatsCEB(Config{Seed: 11, Scale: 0.05})
	skewed := StatsCEB(Config{Seed: 11, Scale: 0.05})
	ApplyDrift(legacy, DriftOptions{Seed: 7, Fraction: 0.3})
	ApplyDrift(skewed, DriftOptions{Seed: 7, Fraction: 0.3, ValueSkew: 2.5})
	diff := false
	for _, name := range legacy.TableNames() {
		tl, ts := legacy.Table(name), skewed.Table(name)
		for i, c := range tl.Cols {
			cs := ts.Cols[i]
			for j := range c.Ints {
				if c.Ints[j] != cs.Ints[j] {
					diff = true
				}
			}
		}
	}
	if !diff {
		t.Fatal("ValueSkew produced identical output to legacy drift")
	}
}

func TestApplyDriftReferentialIntegrity(t *testing.T) {
	cat := StatsCEB(Config{Seed: 11, Scale: 0.05})
	oldMax := map[string]int64{} // "table.col" -> max pre-drift FK value
	for _, name := range cat.TableNames() {
		tb := cat.Table(name)
		for _, c := range tb.Cols {
			if hasSuffix(c.Name, "_id") {
				oldMax[name+"."+c.Name] = colMax(c)
			}
		}
	}
	ApplyDrift(cat, DriftOptions{Seed: 7, Fraction: 0.5, ValueSkew: 2, DomainShift: 0.4})
	for _, name := range cat.TableNames() {
		tb := cat.Table(name)
		for _, c := range tb.Cols {
			switch {
			case c.Name == "id":
				// PK stays a dense sequence 0..n-1.
				for i, v := range c.Ints {
					if v != int64(i) {
						t.Fatalf("%s.id[%d] = %d, broke dense sequence", name, i, v)
					}
				}
			case hasSuffix(c.Name, "_id"):
				// FK values must stay valid references: the drift modes must
				// never push keys beyond the referenced table's id range.
				mx := oldMax[name+"."+c.Name]
				for i, v := range c.Ints {
					if v < 0 || v > mx {
						t.Fatalf("%s.%s[%d] = %d outside [0,%d]: dangling reference", name, c.Name, i, v, mx)
					}
				}
			}
		}
		// Indexes were rebuilt over the grown table.
		for _, c := range tb.Cols {
			if ix := tb.Index(c.Name); ix != nil {
				seen := 0
				for v := int64(0); v <= colMax(c); v++ {
					seen += len(ix.Rows(v))
				}
				if seen != tb.NumRows() {
					t.Errorf("%s.%s index covers %d rows, table has %d", name, c.Name, seen, tb.NumRows())
				}
			}
		}
	}
}

func TestApplyDriftDomainShiftGrowsDomain(t *testing.T) {
	cat := StatsCEB(Config{Seed: 11, Scale: 0.05})
	before := map[string]int64{}
	views := cat.Table("posts").Column("views")
	before["views"] = colMax(views)
	age := cat.Table("users").Column("age")
	before["age"] = colMax(age)

	ApplyDrift(cat, DriftOptions{Seed: 7, Fraction: 0.5, DomainShift: 0.6})
	if mx := colMax(cat.Table("posts").Column("views")); mx <= before["views"] {
		t.Errorf("posts.views max %d did not grow past old max %d under DomainShift", mx, before["views"])
	}
	if mx := colMax(cat.Table("users").Column("age")); mx <= before["age"] {
		t.Errorf("users.age max %d did not grow past old max %d under DomainShift", mx, before["age"])
	}

	// Without DomainShift the domain is bounded: ValueSkew redraws stay
	// inside the old [min,max] envelope.
	cat2 := StatsCEB(Config{Seed: 11, Scale: 0.05})
	oldViews := colMax(cat2.Table("posts").Column("views"))
	ApplyDrift(cat2, DriftOptions{Seed: 7, Fraction: 0.5, ValueSkew: 2.5})
	if mx := colMax(cat2.Table("posts").Column("views")); mx > oldViews {
		t.Errorf("ValueSkew grew posts.views domain: %d > old max %d", mx, oldViews)
	}
}

func TestApplyDriftValueSkewMovesMass(t *testing.T) {
	cat := StatsCEB(Config{Seed: 11, Scale: 0.1})
	views := cat.Table("posts").Column("views")
	n0 := views.Len()
	lo, hi := views.Ints[0], views.Ints[0]
	for _, v := range views.Ints {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	mid := lo + (hi-lo)/2
	above := func(vals []int64) float64 {
		c := 0
		for _, v := range vals {
			if v > mid {
				c++
			}
		}
		return float64(c) / float64(len(vals))
	}
	baseFrac := above(views.Ints[:n0])

	ApplyDrift(cat, DriftOptions{Seed: 7, Fraction: 1.0, ValueSkew: 3})
	views = cat.Table("posts").Column("views")
	newFrac := above(views.Ints[n0:])
	// t0 is bottom-heavy Zipf; the skew mode concentrates at the top, so
	// appended rows must carry far more upper-half mass.
	if newFrac <= baseFrac+0.3 {
		t.Errorf("ValueSkew did not move mass upward: base upper-half frac %.3f, appended %.3f", baseFrac, newFrac)
	}
}
