package pilotscope

import (
	"context"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/workload"
)

type world struct {
	eng     *Engine
	console *Console
	sqls    []string
	test    []string
}

var shared *world

func getWorld(t *testing.T) *world {
	t.Helper()
	if shared != nil {
		return shared
	}
	cat := datagen.StatsCEB(datagen.Config{Seed: 23, Scale: 0.04})
	eng, err := NewEngine(cat, 23)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.GenWorkload(cat, workload.Options{Seed: 23, Count: 40, MaxJoins: 3, MaxPreds: 3})
	var sqls []string
	for _, q := range qs {
		sqls = append(sqls, q.SQL())
	}
	c := NewConsole(eng, 23)
	c.SetWorkload(sqls[:25])
	shared = &world{eng: eng, console: c, sqls: sqls[:25], test: sqls[25:]}
	return shared
}

func TestEngineExecuteSQLNative(t *testing.T) {
	w := getWorld(t)
	res, err := w.eng.ExecuteSQL(context.Background(), &Session{}, w.test[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 || res.Plan == nil {
		t.Fatalf("result = %+v", res)
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	w := getWorld(t)
	sess := &Session{}
	// Pull catalog and stats.
	catAny, err := w.eng.Pull(context.Background(), sess, PullCatalog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if catAny != w.eng.Cat {
		t.Fatal("PullCatalog identity")
	}
	if _, err := w.eng.Pull(context.Background(), sess, PullStats, nil); err != nil {
		t.Fatal(err)
	}
	// Push hints changes the plan when operators are restricted.
	q := mustParse(t, w, w.test[1])
	planAny, err := w.eng.Pull(context.Background(), sess, PullPlan, q)
	if err != nil {
		t.Fatal(err)
	}
	free := planAny.(*plan.Node)
	if err := w.eng.Push(context.Background(), sess, PushHints, plan.HintSet{NoHashJoin: true, NoMergeJoin: true}); err != nil {
		t.Fatal(err)
	}
	planAny2, err := w.eng.Pull(context.Background(), sess, PullPlan, q)
	if err != nil {
		t.Fatal(err)
	}
	hinted := planAny2.(*plan.Node)
	hinted.Walk(func(n *plan.Node) {
		if n.Op == plan.HashJoin || n.Op == plan.MergeJoin {
			t.Fatal("pushed hints ignored")
		}
	})
	_ = free
	// Bad payloads error.
	if err := w.eng.Push(context.Background(), sess, PushHints, 42); err == nil {
		t.Fatal("bad hint payload accepted")
	}
	if _, err := w.eng.Pull(context.Background(), sess, PullTrueCard, "not a query"); err == nil {
		t.Fatal("bad pull payload accepted")
	}
}

func mustParse(t *testing.T, w *world, sql string) *query.Query {
	t.Helper()
	q, err := sqlx.Parse(sql, w.eng.Cat)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPushCardsInjection(t *testing.T) {
	w := getWorld(t)
	q := mustParse(t, w, w.test[2])
	sess := &Session{}
	// Inject an absurd cardinality for the full query's key and verify the
	// plan annotation reflects it.
	cards := map[string]float64{q.Key(): 123456}
	if err := w.eng.Push(context.Background(), sess, PushCards, cards); err != nil {
		t.Fatal(err)
	}
	planAny, err := w.eng.Pull(context.Background(), sess, PullPlan, q)
	if err != nil {
		t.Fatal(err)
	}
	p := planAny.(*plan.Node)
	if p.EstCard != 123456 {
		t.Fatalf("injected card not used: EstCard = %v", p.EstCard)
	}
}

func TestSubqueriesEnumeration(t *testing.T) {
	w := getWorld(t)
	var q *query.Query
	for _, sql := range w.test {
		cand := mustParse(t, w, sql)
		if len(cand.Refs) == 3 {
			q = cand
			break
		}
	}
	if q == nil {
		t.Skip("no 3-table query")
	}
	subs := Subqueries(q)
	// A connected 3-vertex graph has between 5 and 6 connected subsets.
	if len(subs) < 5 {
		t.Fatalf("got %d subqueries", len(subs))
	}
	seen := map[string]bool{}
	for _, s := range subs {
		if seen[s.Key()] {
			t.Fatal("duplicate subquery")
		}
		seen[s.Key()] = true
	}
}

func TestConsoleTransparentExecution(t *testing.T) {
	w := getWorld(t)
	if err := w.console.StopTask(); err != nil {
		t.Fatal(err)
	}
	res, err := w.console.ExecuteSQL(context.Background(), w.test[0])
	if err != nil {
		t.Fatal(err)
	}
	// Native result must match driver-less engine execution.
	direct, err := w.eng.ExecuteSQL(context.Background(), &Session{}, w.test[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != direct.Count {
		t.Fatalf("console changed results: %d vs %d", res.Count, direct.Count)
	}
}

func TestCardEstDriverEndToEnd(t *testing.T) {
	w := getWorld(t)
	d := NewCardEstDriver(cardest.NewGBDTEstimator())
	w.console.RegisterDriver(d)
	if err := w.console.StartTask(context.Background(), d.Name()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.console.StopTask(); err != nil {
			t.Fatal(err)
		}
	}()
	if w.console.ActiveDriver() != d.Name() {
		t.Fatal("driver not active")
	}
	for _, sql := range w.test[:5] {
		res, err := w.console.ExecuteSQL(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := w.eng.ExecuteSQL(context.Background(), &Session{}, sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != direct.Count {
			t.Fatalf("learned cards changed results: %d vs %d", res.Count, direct.Count)
		}
	}
	if w.console.DriverFailures != 0 {
		t.Fatalf("driver failures = %d", w.console.DriverFailures)
	}
}

func TestBaoDriverEndToEnd(t *testing.T) {
	w := getWorld(t)
	d := NewBaoDriver()
	w.console.RegisterDriver(d)
	if err := w.console.StartTask(context.Background(), "bao"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.console.StopTask() }()
	for _, sql := range w.test[:5] {
		res, err := w.console.ExecuteSQL(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		direct, _ := w.eng.ExecuteSQL(context.Background(), &Session{}, sql)
		if res.Count != direct.Count {
			t.Fatalf("bao driver changed results: %d vs %d", res.Count, direct.Count)
		}
	}
}

func TestLeroDriverEndToEnd(t *testing.T) {
	w := getWorld(t)
	d := NewLeroDriver()
	w.console.RegisterDriver(d)
	if err := w.console.StartTask(context.Background(), "lero"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.console.StopTask() }()
	for _, sql := range w.test[:5] {
		res, err := w.console.ExecuteSQL(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		direct, _ := w.eng.ExecuteSQL(context.Background(), &Session{}, sql)
		if res.Count != direct.Count {
			t.Fatalf("lero driver changed results: %d vs %d", res.Count, direct.Count)
		}
	}
}

func TestStartUnknownTask(t *testing.T) {
	w := getWorld(t)
	if err := w.console.StartTask(context.Background(), "doesnotexist"); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestDriversListedSorted(t *testing.T) {
	w := getWorld(t)
	names := w.console.Drivers()
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestIndexAdvisorDriver(t *testing.T) {
	// Private engine: the advisor mutates the catalog's physical design.
	cat := datagen.StatsCEB(datagen.Config{Seed: 29, Scale: 0.04})
	eng, err := NewEngine(cat, 29)
	if err != nil {
		t.Fatal(err)
	}
	console := NewConsole(eng, 29)
	qs := bench29Workload(cat)
	console.SetWorkload(qs)

	// Baseline latency before advising.
	var before float64
	for _, sql := range qs {
		res, err := console.ExecuteSQL(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		before += res.Latency
	}
	d := NewIndexAdvisorDriver()
	d.MinUses = 2
	console.RegisterDriver(d)
	if err := console.StartTask(context.Background(), d.Name()); err != nil {
		t.Fatal(err)
	}
	recs := d.Recommended()
	if len(recs) == 0 {
		t.Skip("workload produced no index candidates on this seed")
	}
	for _, r := range recs {
		if cat.Table(r.Table).Index(r.Column) == nil {
			t.Fatalf("recommended index %s.%s not built", r.Table, r.Column)
		}
	}
	// The same workload must still return identical results and should not
	// be slower overall (index scans replace seq scans where selective).
	var after float64
	for _, sql := range qs {
		res, err := console.ExecuteSQL(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		after += res.Latency
	}
	if after > before*1.05 {
		t.Fatalf("indexes made workload slower: %v -> %v", before, after)
	}
}

func bench29Workload(cat *data.Catalog) []string {
	qs := workload.GenWorkload(cat, workload.Options{Seed: 29, Count: 30, MaxJoins: 2, MaxPreds: 2})
	var out []string
	for _, q := range qs {
		out = append(out, q.SQL())
	}
	return out
}
