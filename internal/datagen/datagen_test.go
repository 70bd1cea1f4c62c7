package datagen

import (
	"math"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

func TestGeneratorsValidateAndScale(t *testing.T) {
	for _, g := range []struct {
		name string
		mk   func(Config) *data.Catalog
	}{
		{"stats", StatsCEB}, {"job", JOBLite}, {"tpch", TPCHLite},
	} {
		small := g.mk(Config{Seed: 1, Scale: 0.05})
		large := g.mk(Config{Seed: 1, Scale: 0.2})
		for _, tn := range small.TableNames() {
			if err := small.Table(tn).Validate(); err != nil {
				t.Fatalf("%s/%s: %v", g.name, tn, err)
			}
		}
		if large.TotalRows() <= small.TotalRows() {
			t.Fatalf("%s: scale did not grow rows (%d vs %d)", g.name, large.TotalRows(), small.TotalRows())
		}
		if len(query.DeriveSchemaEdges(small)) == 0 {
			t.Fatalf("%s: no schema edges", g.name)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := StatsCEB(Config{Seed: 9, Scale: 0.05})
	b := StatsCEB(Config{Seed: 9, Scale: 0.05})
	ca := a.Table("posts").Column("score")
	cb := b.Table("posts").Column("score")
	for i := 0; i < ca.Len(); i++ {
		if ca.Ints[i] != cb.Ints[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := StatsCEB(Config{Seed: 10, Scale: 0.05})
	same := true
	cc := c.Table("posts").Column("score")
	for i := 0; i < ca.Len() && i < cc.Len(); i++ {
		if ca.Ints[i] != cc.Ints[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestStatsCEBCorrelations(t *testing.T) {
	cat := StatsCEB(Config{Seed: 4, Scale: 0.1})
	posts := cat.Table("posts")
	score, views := posts.Column("score"), posts.Column("views")
	n := posts.NumRows()
	var sx, sy, sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		x, y := score.Float(i), views.Float(i)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	fn := float64(n)
	corr := (sxy/fn - sx/fn*sy/fn) / math.Sqrt((sxx/fn-sx/fn*sx/fn)*(syy/fn-sy/fn*sy/fn))
	if corr < 0.5 {
		t.Fatalf("posts.score/views correlation = %v — the independence-defeating signal is missing", corr)
	}
}

func TestStatsCEBSkew(t *testing.T) {
	cat := StatsCEB(Config{Seed: 4, Scale: 0.1})
	// comments.post_id should be Zipf: the hottest post gets far more than
	// the uniform share.
	c := cat.Table("comments").Column("post_id")
	counts := map[int64]int{}
	for _, v := range c.Ints {
		counts[v]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	uniform := float64(c.Len()) / float64(cat.Table("posts").NumRows())
	if float64(max) < uniform*5 {
		t.Fatalf("hottest FK count %d vs uniform share %.1f — skew missing", max, uniform)
	}
}

func TestFKReferentialIntegrity(t *testing.T) {
	for _, mk := range []func(Config) *data.Catalog{StatsCEB, JOBLite, TPCHLite} {
		cat := mk(Config{Seed: 6, Scale: 0.05})
		for _, e := range query.DeriveSchemaEdges(cat) {
			ref := cat.Table(e.T2)
			refCol := ref.Column(e.C2)
			valid := map[int64]bool{}
			for _, v := range refCol.Ints {
				valid[v] = true
			}
			fk := cat.Table(e.T1).Column(e.C1)
			for _, v := range fk.Ints {
				if !valid[v] {
					t.Fatalf("%s.%s value %d has no match in %s.%s", e.T1, e.C1, v, e.T2, e.C2)
				}
			}
		}
	}
}

func TestIndexesBuilt(t *testing.T) {
	cat := StatsCEB(Config{Seed: 6, Scale: 0.05})
	for _, tn := range cat.TableNames() {
		tbl := cat.Table(tn)
		if tbl.Index("id") == nil {
			t.Fatalf("%s.id not indexed", tn)
		}
	}
}

func TestApplyDriftGrowsAndKeepsIntegrity(t *testing.T) {
	cat := StatsCEB(Config{Seed: 8, Scale: 0.05})
	before := cat.TotalRows()
	ApplyDrift(cat, DriftOptions{Seed: 80, Fraction: 0.5})
	after := cat.TotalRows()
	if after <= before {
		t.Fatalf("drift did not append: %d → %d", before, after)
	}
	for _, tn := range cat.TableNames() {
		if err := cat.Table(tn).Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// FKs remain valid references.
	for _, e := range query.DeriveSchemaEdges(cat) {
		refCol := cat.Table(e.T2).Column(e.C2)
		valid := map[int64]bool{}
		for _, v := range refCol.Ints {
			valid[v] = true
		}
		for _, v := range cat.Table(e.T1).Column(e.C1).Ints {
			if !valid[v] {
				t.Fatalf("post-drift dangling FK %s.%s=%d", e.T1, e.C1, v)
			}
		}
	}
	// Indexes were rebuilt to cover appended rows.
	posts := cat.Table("posts")
	lastID := int64(posts.NumRows() - 1)
	if rows := posts.Index("id").Rows(lastID); len(rows) == 0 {
		t.Fatal("index not rebuilt after drift")
	}
}

func TestApplyDriftZeroFractionNoop(t *testing.T) {
	cat := StatsCEB(Config{Seed: 8, Scale: 0.05})
	before := cat.TotalRows()
	ApplyDrift(cat, DriftOptions{Seed: 80, Fraction: 0})
	if cat.TotalRows() != before {
		t.Fatal("zero fraction changed data")
	}
}
