package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
)

// stringCatalog is a small catalog whose filters resolve string literals:
// t(id, s, v, f) with s over {x, y, z}, and u(id, t_id, w) with w over
// {p, q, r}, u.t_id referencing t.id. No indexes: appended rows need no
// rebuild.
func stringCatalog() *data.Catalog {
	cat := data.NewCatalog()
	id := &data.Column{Name: "id", Kind: data.Int}
	s := &data.Column{Name: "s", Kind: data.String}
	v := &data.Column{Name: "v", Kind: data.Int}
	f := &data.Column{Name: "f", Kind: data.Float}
	for i := 0; i < 30; i++ {
		id.AppendInt(int64(i))
		s.AppendString([]string{"x", "y", "z"}[i%3])
		v.AppendInt(int64(i % 7))
		f.AppendFloat(float64(i%5) + 0.5)
	}
	cat.Add(data.NewTable("t", id, s, v, f))
	uid := &data.Column{Name: "id", Kind: data.Int}
	tid := &data.Column{Name: "t_id", Kind: data.Int}
	w := &data.Column{Name: "w", Kind: data.String}
	for i := 0; i < 40; i++ {
		uid.AppendInt(int64(i))
		tid.AppendInt(int64(i * 7 % 30))
		w.AppendString([]string{"p", "q", "r"}[i%3])
	}
	cat.Add(data.NewTable("u", uid, tid, w))
	return cat
}

// newCatalogServer serves cat with a constant estimator and no q-error
// gate, so which requests hit the plan cache depends only on the texts.
func newCatalogServer(cat *data.Catalog) *Server {
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 1})
	return New(cat, opt.New(cat, cost.New(cs), constEstimator{}), exec.New(cat), Config{InvalidateQError: -1})
}

// appendRow appends one row to table name of cat: the next id, the given
// string in its string column, and values derived from the row number in
// the others.
func appendRow(cat *data.Catalog, name, str string) {
	t := cat.Table(name)
	n := t.NumRows()
	for _, c := range t.Cols {
		switch {
		case c.Name == "id":
			c.AppendInt(int64(n))
		case c.Name == "t_id":
			c.AppendInt(int64(n % cat.Table("t").NumRows()))
		case c.Kind == data.String:
			c.AppendString(str)
		case c.Kind == data.Float:
			c.AppendFloat(float64(n%5) + 0.5)
		default:
			c.AppendInt(int64(n % 7))
		}
	}
}

// rebuilt returns a copy of t whose string dictionaries intern their
// strings in reverse order: the same rows, every string under a new code.
func rebuilt(t *data.Table) *data.Table {
	cols := make([]*data.Column, len(t.Cols))
	for i, c := range t.Cols {
		nc := &data.Column{Name: c.Name, Kind: c.Kind, Ints: append([]int64(nil), c.Ints...), Flts: append([]float64(nil), c.Flts...)}
		if c.Dict != nil {
			nc.Dict = data.NewDict()
			for code := c.Dict.Len() - 1; code >= 0; code-- {
				nc.Dict.Code(c.Dict.Str(int64(code)))
			}
			for r, code := range c.Ints {
				nc.Ints[r], _ = nc.Dict.Lookup(c.Dict.Str(code))
			}
		}
		cols[i] = nc
	}
	return data.NewTable(t.Name, cols...)
}

// TestPreparedStmtFollowsDictionaryGrowth: a template literal absent from
// the dictionary is coded Len()+1, a code appended strings later take. The
// statement must re-prepare rather than count the new 'b' rows as 'zz'.
func TestPreparedStmtFollowsDictionaryGrowth(t *testing.T) {
	cat := data.NewCatalog()
	id := &data.Column{Name: "id", Kind: data.Int}
	s := &data.Column{Name: "s", Kind: data.String}
	for i, v := range []string{"x", "y", "z"} {
		id.AppendInt(int64(i))
		s.AppendString(v)
	}
	cat.Add(data.NewTable("t", id, s))
	srv := newCatalogServer(cat)
	stmt, err := srv.Prepare("SELECT COUNT(*) FROM t WHERE t.s = 'zz' AND t.id >= ?;")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := srv.Exec(context.Background(), "a", stmt, 0); err != nil || res.Count != 0 {
		t.Fatalf("before growth: %+v, %v; want 0 rows", res, err)
	}
	for i, v := range []string{"a", "b", "b"} {
		id.AppendInt(int64(3 + i))
		s.AppendString(v)
	}
	res, err := srv.Exec(context.Background(), "a", stmt, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := srv.Query(context.Background(), "a", "SELECT COUNT(*) FROM t WHERE t.s = 'zz' AND t.id >= 0;")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || fresh.Count != 0 {
		t.Fatalf("after growth: prepared %d, fresh parse %d; want 0", res.Count, fresh.Count)
	}
}

// TestPreparedStmtFollowsTableReplacement: cat.Add of a rebuilt table
// re-codes every string and replaces the slot columns; the statement must
// bind against the new table.
func TestPreparedStmtFollowsTableReplacement(t *testing.T) {
	cat := stringCatalog()
	srv := newCatalogServer(cat)
	stmt, err := srv.Prepare("SELECT COUNT(*) FROM t, u WHERE t.id = u.t_id AND t.s = 'x' AND u.w = ?;")
	if err != nil {
		t.Fatal(err)
	}
	before, err := srv.Exec(context.Background(), "a", stmt, "p")
	if err != nil {
		t.Fatal(err)
	}
	cat.Add(rebuilt(cat.Table("t")))
	cat.Add(rebuilt(cat.Table("u")))
	appendRow(cat, "u", "p") // through the new dictionary only
	after, err := srv.Exec(context.Background(), "a", stmt, "p")
	if err != nil {
		t.Fatal(err)
	}
	want := referenceCount(t, cat, "SELECT COUNT(*) FROM t, u WHERE t.id = u.t_id AND t.s = 'x' AND u.w = 'p';")
	if after.Count != want.Count {
		t.Fatalf("after replacement: prepared %d, fresh parse %d (before: %d)", after.Count, want.Count, before.Count)
	}
}

// referenceCount is the oracle: a fresh parse of sql executed by the
// reference evaluator over its canonical plan.
func referenceCount(t testing.TB, cat *data.Catalog, sql string) *exec.Result {
	t.Helper()
	q, err := sqlx.Parse(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.CanonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.New(cat).ReferenceRun(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// lastQuery records the query of the latest execution.
type lastQuery struct{ q *query.Query }

func (l *lastQuery) ObserveRun(g *query.JoinGraph, _ *plan.Node, _ []float64) { l.q = g.Query() }

// staleText is a generated statement and what a catalog change can make
// stale: the tables it names and the literals it compares t.s with.
type staleText struct {
	sql    string
	tables []string
	sLits  []string
}

// genStaleText draws a query over stringCatalog: one or both tables, an
// aggregate, and filters mixing present and absent string literals, ints
// and ints on the float column.
func genStaleText(rng *rand.Rand) staleText {
	aggs := []string{"COUNT(*)", "SUM(t.v)", "MAX(t.f)"}
	sLits := []string{"x", "y", "z", "n0", "n1", "n2", "zz"}
	var st staleText
	var conds []string
	from := "t"
	st.tables = []string{"t"}
	if rng.Intn(2) == 0 {
		from = "t, u"
		st.tables = append(st.tables, "u")
		conds = append(conds, "t.id = u.t_id")
		if rng.Intn(2) == 0 {
			conds = append(conds, fmt.Sprintf("u.w = '%s'", []string{"p", "q", "r", "n0"}[rng.Intn(4)]))
		}
	}
	for i := rng.Intn(2); i < 2; i++ {
		lit := sLits[rng.Intn(len(sLits))]
		st.sLits = append(st.sLits, lit)
		conds = append(conds, fmt.Sprintf("t.s = '%s'", lit))
	}
	if rng.Intn(2) == 0 {
		conds = append(conds, fmt.Sprintf("t.v >= %d", rng.Intn(7)))
	}
	if rng.Intn(2) == 0 {
		conds = append(conds, fmt.Sprintf("t.f > %d", rng.Intn(5)))
	}
	st.sql = fmt.Sprintf("SELECT %s FROM %s WHERE %s;", aggs[rng.Intn(len(aggs))], from, strings.Join(conds, " AND "))
	return st
}

// FuzzStatementStaleness is the statement cache's differential test: texts
// are served (admitting them), the catalog changes, and they are served
// again. Every reply must equal a fresh parse executed by the reference
// evaluator, the executed query's key a fresh parse's key, and a current
// cache entry a fresh parse; a text is served from the cache after a
// change exactly when the change left its parse current. Mutations: 0
// appends a row to t with a new dictionary string, 1 appends a row of an
// existing one, 2 is datagen.ApplyDrift, 3 replaces t with a re-coded
// rebuild, 4 replaces u.
func FuzzStatementStaleness(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4})
	f.Add(int64(2), []byte{3, 0, 0, 2, 1, 0})
	f.Add(int64(3), []byte{4, 4, 0, 3})
	f.Fuzz(func(t *testing.T, seed int64, muts []byte) {
		if len(muts) > 6 {
			muts = muts[:6]
		}
		rng := rand.New(rand.NewSource(seed))
		cat := stringCatalog()
		s := newCatalogServer(cat)
		obs := &lastQuery{}
		s.SetObserver(obs)
		// Distinct queries: a second spelling of one would hit its plan,
		// and be admitted, on first sight.
		var texts []staleText
		for seen := map[string]bool{}; len(texts) < 6; {
			st := genStaleText(rng)
			q, err := sqlx.Parse(st.sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			if !seen[q.Key()] {
				seen[q.Key()] = true
				texts = append(texts, st)
			}
		}
		calls := int64(0)
		serve := func(st staleText, stage string) bool {
			before := s.Stats().StmtHits
			res, err := s.Query(context.Background(), "a", st.sql)
			calls++
			if err != nil {
				t.Fatalf("%s: %s: %v", stage, st.sql, err)
			}
			want := referenceCount(t, cat, st.sql)
			if res.Count != want.Count || math.Float64bits(res.Value) != math.Float64bits(want.Value) {
				t.Fatalf("%s: %s: served %d/%v, fresh parse %d/%v", stage, st.sql, res.Count, res.Value, want.Count, want.Value)
			}
			fresh, err := sqlx.Parse(st.sql, cat)
			if err != nil {
				t.Fatal(err)
			}
			if obs.q.Key() != fresh.Key() {
				t.Fatalf("%s: %s: executed key %q, fresh parse %q", stage, st.sql, obs.q.Key(), fresh.Key())
			}
			if e, ok := s.stmts.entries[st.sql]; ok && e.st.Current(cat) {
				if e.key != fresh.Key() || !reflect.DeepEqual(e.st.Query(), fresh) {
					t.Fatalf("%s: %s: current entry differs from a fresh parse", stage, st.sql)
				}
			}
			return s.Stats().StmtHits > before
		}
		// Three rounds: miss and plan, miss and admit, hit.
		for round := 0; round < 3; round++ {
			for _, st := range texts {
				if hit := serve(st, "initial"); hit != (round == 2) {
					t.Fatalf("initial round %d: %s: statement hit %v", round, st.sql, hit)
				}
			}
		}
		added := 0
		for i, m := range muts {
			kind := int(m % 5)
			dict := cat.Table("t").Column("s").Dict
			stale := make([]bool, len(texts))
			for k, st := range texts {
				for _, lit := range st.sLits {
					if _, present := dict.Lookup(lit); !present && kind == 0 {
						stale[k] = true
					}
				}
				for _, name := range st.tables {
					if (kind == 3 && name == "t") || (kind == 4 && name == "u") {
						stale[k] = true
					}
				}
			}
			switch kind {
			case 0:
				appendRow(cat, "t", fmt.Sprintf("n%d", added))
				added++
			case 1:
				appendRow(cat, "t", "y")
			case 2:
				datagen.ApplyDrift(cat, datagen.DriftOptions{Seed: seed + int64(i), Fraction: 0.3})
			case 3:
				cat.Add(rebuilt(cat.Table("t")))
			case 4:
				cat.Add(rebuilt(cat.Table("u")))
			}
			stage := fmt.Sprintf("mutation %d (kind %d)", i, kind)
			for round := 0; round < 3; round++ {
				for k, st := range texts {
					hit := serve(st, stage)
					if round == 0 && hit == stale[k] {
						t.Fatalf("%s: %s: statement hit %v, stale %v", stage, st.sql, hit, stale[k])
					}
					if round == 2 && !hit {
						t.Fatalf("%s: %s: third request missed the statement cache", stage, st.sql)
					}
				}
			}
		}
		if st := s.Stats(); st.StmtHits+st.StmtMisses != calls {
			t.Fatalf("stats count %d+%d requests, served %d", st.StmtHits, st.StmtMisses, calls)
		}
	})
}
