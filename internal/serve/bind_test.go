// Tests for the binding memo: a hit runs its entry's exec.Binding, which
// must be rebuilt exactly when the catalog's generation has moved or the
// hit's aggregate is another, and every reply must be what the reference
// evaluator computes against the catalog as it is now.
package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
)

// lastRun records the plan and the record of the latest execution.
type lastRun struct {
	p     *plan.Node
	cards []float64
}

func (l *lastRun) ObserveRun(_ *query.JoinGraph, p *plan.Node, cards []float64) {
	l.p, l.cards = p, slices.Clone(cards)
}

// tee passes every run to each of its observers.
type tee []ExecObserver

func (t tee) ObserveRun(g *query.JoinGraph, p *plan.Node, cards []float64) {
	for _, o := range t {
		o.ObserveRun(g, p, cards)
	}
}

// bindingOf returns the binding memoized on the entry under key, nil if
// there is no entry or no memo yet.
func bindingOf(s *Server, key string) *exec.Binding {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	el, ok := s.cache.entries[key]
	if !ok {
		return nil
	}
	if m := el.Value.(*cacheEntry).memo.Load(); m != nil {
		return m.bind.Load()
	}
	return nil
}

// bindCheck serves requests on s and checks each reply and the binding
// memo of the entry it ran.
type bindCheck struct {
	t   testing.TB
	s   *Server
	cat *data.Catalog
	obs *lastRun
	// rebuilt counts the hits that found a binding of another generation.
	rebuilt int
}

func newBindCheck(t testing.TB, cat *data.Catalog) *bindCheck {
	c := &bindCheck{t: t, s: newCatalogServer(cat), cat: cat, obs: &lastRun{}}
	c.s.SetObserver(c.obs)
	return c
}

// serve runs one request for sql — ad hoc, or through stmt with args
// when stmt is set, sql then being its text with the arguments spelled
// in — and checks it. The reply must equal ReferenceRun of a fresh parse
// over the plan the server ran: Count, Value bits, WorkUnits bits and
// the Cards record. A hit must leave its entry a binding current against
// the catalog: the one it found when that was current, else a new one.
// A miss leaves none.
func (c *bindCheck) serve(stage, sql string, stmt *Stmt, args ...any) {
	t, s := c.t, c.s
	t.Helper()
	fresh, err := sqlx.Prepare(sql, c.cat)
	if err != nil {
		t.Fatal(err)
	}
	if stmt != nil {
		tmpl, err := sqlx.Prepare(stmt.src, c.cat)
		if err != nil {
			t.Fatal(err)
		}
		fresh = tmpl
	}
	key := s.cacheKey(fresh.ShapeKey())
	q, err := sqlx.Parse(sql, c.cat)
	if err != nil {
		t.Fatal(err)
	}
	before := bindingOf(s, key)
	wasCurrent := before.Current(c.cat, q)
	var res *Result
	if stmt != nil {
		res, err = s.Exec(context.Background(), "a", stmt, args...)
	} else {
		res, err = s.Query(context.Background(), "a", sql)
	}
	if err != nil {
		t.Fatalf("%s: %s: %v", stage, sql, err)
	}
	after := bindingOf(s, key)
	switch {
	case !res.Cached && after != nil:
		t.Fatalf("%s: %s: a miss memoized a binding", stage, sql)
	case res.Cached && !after.Current(c.cat, q):
		t.Fatalf("%s: %s: a hit left no current binding", stage, sql)
	case res.Cached && wasCurrent && after != before:
		t.Fatalf("%s: %s: a hit rebuilt a current binding", stage, sql)
	case res.Cached && before != nil && !wasCurrent:
		c.rebuilt++
	}
	want, err := exec.New(c.cat).ReferenceRun(context.Background(), q, c.obs.p)
	if err != nil {
		t.Fatalf("%s: %s: reference: %v", stage, sql, err)
	}
	if res.Count != want.Count || math.Float64bits(res.Value) != math.Float64bits(want.Value) ||
		math.Float64bits(res.Latency) != math.Float64bits(want.Stats.WorkUnits) || !slices.Equal(c.obs.cards, want.Cards) {
		t.Fatalf("%s: %s: served %d/%v/%v cards %v, reference %d/%v/%v cards %v", stage, sql,
			res.Count, res.Value, res.Latency, c.obs.cards, want.Count, want.Value, want.Stats.WorkUnits, want.Cards)
	}
}

// bindSQL are stringCatalog texts: a join filtered by a string literal
// on t (whose entry a re-coded t replaces), one filtered by ints only
// (whose entry survives every change) and a single-table aggregate.
var bindSQL = []string{
	"SELECT COUNT(*) FROM t, u WHERE t.id = u.t_id AND t.s = 'x';",
	"SELECT SUM(t.v) FROM t, u WHERE t.id = u.t_id AND t.v >= 2;",
	"SELECT MAX(t.f) FROM t WHERE t.v < 5;",
}

// aggSQL share one FROM/WHERE, and so one plan-cache entry (whose key
// leaves the aggregate out), under four aggregates.
var aggSQL = []string{
	"SELECT SUM(t.v) FROM t, u WHERE t.id = u.t_id AND t.v >= 2;",
	"SELECT COUNT(*) FROM t, u WHERE t.id = u.t_id AND t.v >= 2;",
	"SELECT MAX(t.f) FROM t, u WHERE t.id = u.t_id AND t.v >= 2;",
	"SELECT AVG(u.id) FROM t, u WHERE t.id = u.t_id AND t.v >= 2;",
}

// bindTemplate is a prepared join over stringCatalog, spelled for a
// fresh parse by bindText.
const bindTemplate = "SELECT COUNT(*) FROM t, u WHERE t.id = u.t_id AND u.w = 'p' AND t.v >= ?;"

func bindText(v int) string { return strings.Replace(bindTemplate, "?", fmt.Sprint(v), 1) }

// TestBindingFollowsCatalog hits cached ad-hoc and prepared plans across
// every change a serving catalog and server see: appended rows
// (datagen.ApplyDrift), a Catalog.Add replacing each table with a
// re-coded copy, ResetFeedback and FlushPlans. Every reply must equal the
// reference, and a hit must rebuild its binding exactly when the catalog
// generation moved.
func TestBindingFollowsCatalog(t *testing.T) {
	cat := stringCatalog()
	c := newBindCheck(t, cat)
	stmt, err := c.s.Prepare(bindTemplate)
	if err != nil {
		t.Fatal(err)
	}
	round := func(stage string) {
		for range 3 {
			for _, sql := range bindSQL {
				c.serve(stage, sql, nil)
			}
			for _, v := range []int{1, 4} {
				c.serve(stage, bindText(v), stmt, v)
			}
		}
	}
	round("initial")
	for _, step := range []struct {
		stage   string
		change  func()
		rebuild int // hits that must find their binding stale
	}{
		{"drift", func() { datagen.ApplyDrift(cat, datagen.DriftOptions{Seed: 3, Fraction: 0.3}) }, 0},
		// The literal 'x' is coded anew: its text gets a new entry, the
		// other two texts' entries rebind. The template prepares again
		// to the same shape, so its entry rebinds too. Rows appended to
		// the new table are what a stale binding would miss.
		{"replace t", func() {
			cat.Add(rebuilt(cat.Table("t")))
			datagen.ApplyDrift(cat, datagen.DriftOptions{Seed: 4, Fraction: 0.3})
		}, 3},
		{"reset feedback", func() { c.s.ResetFeedback() }, 0},
		{"flush plans", func() { c.s.FlushPlans() }, 0},
		// The template's 'p' is coded anew: a new shape and entry.
		{"replace u", func() {
			cat.Add(rebuilt(cat.Table("u")))
			datagen.ApplyDrift(cat, datagen.DriftOptions{Seed: 5, Fraction: 0.3})
		}, 3},
	} {
		c.rebuilt = 0
		step.change()
		round(step.stage)
		if c.rebuilt != step.rebuild {
			t.Errorf("%s: %d hits rebuilt a binding, want %d", step.stage, c.rebuilt, step.rebuild)
		}
	}
}

// shared returns a copy of t over the same column storage and
// dictionaries: a replacement under which every query keeps its answer
// and every text its parse.
func shared(t *data.Table) *data.Table {
	cols := make([]*data.Column, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = &data.Column{Name: c.Name, Kind: c.Kind, Ints: c.Ints, Flts: c.Flts, Dict: c.Dict}
	}
	return data.NewTable(t.Name, cols...)
}

// TestBindingRaceWithTableReplacement has 8 goroutines hit cached
// entries, ad hoc and prepared, while another replaces both of their
// tables again and again with copies that answer the same: copies over
// the same columns, and re-coded copies (rebuilt), under which the texts'
// string literal changes its code. Every reply must be the reference's:
// a request that parsed against one table and ran its plan bound to the
// re-coded replacement would filter on the wrong code. Under -race no
// lookup, rebuild or memo swap may race.
func TestBindingRaceWithTableReplacement(t *testing.T) {
	for _, c := range []struct {
		name   string
		copyOf func(*data.Table) *data.Table
	}{{"shared", shared}, {"rebuilt", rebuilt}} {
		t.Run(c.name, func(t *testing.T) { raceReplacement(t, c.copyOf) })
	}
}

// raceSQL filters t on a string literal whose code a rebuilt t swaps
// with that of 'z', which answers otherwise (8 rows summing to 13, not 10
// to 16); raceTemplate is its prepared form, run with 5.
const (
	raceSQL      = "SELECT SUM(t.v) FROM t, u WHERE t.id = u.t_id AND t.s = 'x' AND t.v < 5;"
	raceTemplate = "SELECT SUM(t.v) FROM t, u WHERE t.id = u.t_id AND t.s = 'x' AND t.v < ?;"
)

func raceReplacement(t *testing.T, copyOf func(*data.Table) *data.Table) {
	ctx := context.Background()
	cat := stringCatalog()
	s := newCatalogServer(cat)
	stmt, err := s.Prepare(raceTemplate)
	if err != nil {
		t.Fatal(err)
	}
	obs := &lastRun{}
	s.SetObserver(obs)
	// Plan, then memoize; the reference runs each served plan.
	var want [2]*exec.Result
	for range 2 {
		for k := range want {
			var err error
			if k == 0 {
				_, err = s.Query(ctx, "a", raceSQL)
			} else {
				_, err = s.Exec(ctx, "a", stmt, 5)
			}
			if err != nil {
				t.Fatal(err)
			}
			q, err := sqlx.Parse(raceSQL, cat)
			if err != nil {
				t.Fatal(err)
			}
			if want[k], err = exec.New(cat).ReferenceRun(ctx, q, obs.p); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.SetObserver(nil)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	stop := make(chan struct{})
	replaced := make(chan int)
	go func() {
		n := 0
		for ; ; n++ {
			select {
			case <-stop:
				replaced <- n
				return
			default:
			}
			cat.Add(copyOf(cat.Table("t")))
			cat.Add(copyOf(cat.Table("u")))
		}
	}()
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprint("tenant", g)
			for i := range 1000 {
				k := i % 2
				var res *Result
				var err error
				if k == 0 {
					res, err = s.Query(ctx, tenant, raceSQL)
				} else {
					res, err = s.Exec(ctx, tenant, stmt, 5)
				}
				w := want[k]
				if err == nil && (res.Count != w.Count || math.Float64bits(res.Value) != math.Float64bits(w.Value) ||
					math.Float64bits(res.Latency) != math.Float64bits(w.Stats.WorkUnits)) {
					err = fmt.Errorf("request %d: served %d/%v/%v, reference %d/%v/%v", i, res.Count, res.Value, res.Latency, w.Count, w.Value, w.Stats.WorkUnits)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-replaced; n == 0 {
		t.Log("no table was replaced while the requests ran")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	q, err := sqlx.Parse(raceSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	key := s.cacheKey(q.Key())
	for range 2 {
		if _, err := s.Query(ctx, "a", raceSQL); err != nil {
			t.Fatal(err)
		}
	}
	if !bindingOf(s, key).Current(cat, q) {
		t.Fatal("the entry's binding is not current after the last replacement")
	}
}

// TestBindingFollowsAggregate hits one plan-cache entry with texts that
// differ only in their aggregate: every hit must run a binding made for
// its own aggregate, so a hit rebuilds the memo exactly when the hit
// before it on the entry had another aggregate. A binding of one
// aggregate run for another computes the wrong column or none.
func TestBindingFollowsAggregate(t *testing.T) {
	cat := stringCatalog()
	c := newBindCheck(t, cat)
	for round := range 3 {
		for _, sql := range aggSQL {
			for range 2 {
				c.serve(fmt.Sprint("round ", round), sql, nil)
			}
		}
	}
	// The first request plans and the second memoizes; every later
	// change of aggregate rebuilds: 3 in the first round, 4 in each other.
	if want := 3 + 4 + 4; c.rebuilt != want {
		t.Errorf("%d hits rebuilt a binding, want %d", c.rebuilt, want)
	}
	datagen.ApplyDrift(cat, datagen.DriftOptions{Seed: 6, Fraction: 0.3})
	cat.Add(rebuilt(cat.Table("u")))
	for _, sql := range aggSQL {
		c.serve("after replacing u", sql, nil)
	}
}

// FuzzBindingStaleness is the hit memo's differential test: seeded
// interleavings of ad-hoc and prepared requests with appended rows
// (datagen.ApplyDrift), table replacements by re-coded copies, and
// feedback resets and plan flushes. Every reply must equal the reference
// evaluator's over the plan the server ran, and a hit must rebuild its
// binding exactly when the catalog generation moved (bindCheck.serve).
// The feedback store must equal the mirror's after every step, and each
// harvest record of the statement's entry hold its own binding's keys;
// the statement rotates more bindings than an entry holds records. Each
// op byte picks its step by op % 6: 0 and 1 an ad-hoc text, 2 the
// prepared statement, 3 drift, 4 a replacement of t or u, 5 a reset of
// the feedback store, with a flush of the plan cache on odd op / 6.
func FuzzBindingStaleness(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 6, 8, 3, 0, 7, 2, 4, 0, 1, 8, 5, 0, 2, 11, 6, 8})
	f.Add(int64(2), []byte{2, 8, 0, 10, 4, 2, 8, 6, 1, 9, 2, 5, 14, 0, 3, 2, 7})
	f.Add(int64(3), []byte{6, 7, 12, 13, 17, 0, 2, 3, 6, 8, 16, 0, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		rng := rand.New(rand.NewSource(seed))
		cat := stringCatalog()
		c := newBindCheck(t, cat)
		m := newMirror(0)
		c.s.SetObserver(tee{c.obs, m})
		stmt, err := c.s.Prepare(bindTemplate)
		if err != nil {
			t.Fatal(err)
		}
		texts := slices.Clone(aggSQL)
		for range 3 {
			texts = append(texts, genStaleText(rng).sql)
		}
		for i, op := range ops {
			arg := int(op / 6)
			stage := fmt.Sprintf("op %d (%d)", i, op)
			switch op % 6 {
			case 0, 1:
				c.serve(stage, texts[arg%len(texts)], nil)
			case 2:
				v := arg % (maxRecords + 2)
				c.serve(stage, bindText(v), stmt, v)
				requireOwnKeys(t, c.s, stmt.e.Load().st.ShapeKey(), stage)
			case 3:
				datagen.ApplyDrift(cat, datagen.DriftOptions{Seed: seed + int64(i), Fraction: 0.3})
			case 4:
				name := []string{"t", "u"}[arg%2]
				cat.Add(rebuilt(cat.Table(name)))
			case 5:
				c.s.ResetFeedback()
				m.reset()
				if arg%2 == 1 {
					c.s.FlushPlans()
				}
			}
			requireMirrored(t, c.s, m, stage)
		}
	})
}
