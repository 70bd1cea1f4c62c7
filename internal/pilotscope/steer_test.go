package pilotscope

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lqo/internal/costmodel"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/steer_golden.txt from the current drivers")

// pushedKnob is the knob a steering driver left on sess.
func pushedKnob(sess *Session) string {
	switch {
	case sess.hints != nil:
		return fmt.Sprintf("%+v", *sess.hints)
	case sess.cardScale != 0:
		return fmt.Sprintf("%g", sess.cardScale)
	}
	return "-"
}

// TestSteeringGolden pins what bao and lero steer: the knob each pushes
// for every workload query, training and test alike, and the bits of
// each driver's total work, against testdata/steer_golden.txt (recorded
// when Bao and Lero were two driver types). Every prediction the drivers
// rank must be a number.
func TestSteeringGolden(t *testing.T) {
	w := getWorld(t)
	ctx := context.Background()
	var b strings.Builder
	for _, d := range []*SteeringDriver{NewBaoDriver(), NewLeroDriver()} {
		if err := d.Init(&InitContext{Ctx: ctx, DB: w.eng, Workload: w.sqls, Seed: 23}); err != nil {
			t.Fatal(err)
		}
		var total float64
		for i, sql := range append(append([]string(nil), w.sqls...), w.test...) {
			q := mustParse(t, w, sql)
			cands, err := d.candidates(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cands {
				if v := d.value.Predict(q, c.plan); math.IsNaN(v) {
					t.Errorf("%s query %d knob %v: prediction is NaN", d.Name(), i, c.knob)
				}
			}
			sess := &Session{Query: q}
			if err := d.Algo(ctx, sess); err != nil {
				t.Fatalf("%s query %d: %v", d.Name(), i, err)
			}
			res, err := w.eng.ExecuteQuery(ctx, sess, q)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Latency
			fmt.Fprintf(&b, "%s %d %s\n", d.Name(), i, pushedKnob(sess))
		}
		fmt.Fprintf(&b, "%s total-work-bits %#x\n", d.Name(), math.Float64bits(total))
	}
	path := filepath.Join("testdata", "steer_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to record): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("steering changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// stubDB plans every pushed scale factor as a scan of its own table, so
// each knob's plan is distinct; a factor with no table fails PullPlan.
type stubDB struct {
	tables map[float64]string
}

func (db *stubDB) Push(ctx context.Context, sess *Session, kind PushKind, payload any) error {
	sess.cardScale = payload.(float64)
	return nil
}

func (db *stubDB) Pull(ctx context.Context, sess *Session, kind PullKind, payload any) (any, error) {
	t, ok := db.tables[sess.cardScale]
	if !ok {
		return nil, errors.New("stubDB: no plan")
	}
	return plan.NewScan(plan.SeqScan, "a", t, nil), nil
}

func (db *stubDB) ExecuteQuery(ctx context.Context, sess *Session, q *query.Query) (*Result, error) {
	return nil, errors.New("stubDB: does not execute")
}

// stubModel predicts each plan's latency from its table.
type stubModel map[string]float64

func (m stubModel) Name() string                                 { return "stub" }
func (m stubModel) Train(*costmodel.Context) error               { return nil }
func (m stubModel) Predict(q *query.Query, p *plan.Node) float64 { return m[p.Table] }

func TestSteeringSelectionRule(t *testing.T) {
	nan := math.NaN()
	all := map[float64]string{1: "t1", 2: "t2", 3: "t3"}
	cases := []struct {
		name   string
		tables map[float64]string
		preds  stubModel
		want   float64 // pushed factor; 0 means Algo errors
	}{
		{"lowest wins", all, stubModel{"t1": 5, "t2": 3, "t3": 4}, 2},
		{"tie goes to the first knob", all, stubModel{"t1": 5, "t2": 3, "t3": 3}, 2},
		{"NaN never beats a finite prediction", all, stubModel{"t1": nan, "t2": 4, "t3": nan}, 2},
		{"a finite first knob beats later NaNs", all, stubModel{"t1": 4, "t2": nan, "t3": nan}, 1},
		{"all NaN: the first candidate wins", all, stubModel{"t1": nan, "t2": nan, "t3": nan}, 1},
		{"all NaN: the first knob with a plan wins", map[float64]string{2: "t2", 3: "t3"}, stubModel{"t2": nan, "t3": nan}, 2},
		{"no knob yields a plan", map[float64]string{}, stubModel{}, 0},
	}
	for _, c := range cases {
		d := &SteeringDriver{name: "stub", push: PushCardScale, knobs: []any{1.0, 2.0, 3.0}, value: c.preds, db: &stubDB{tables: c.tables}}
		sess := &Session{Query: &query.Query{}}
		err := d.Algo(context.Background(), sess)
		if c.want == 0 {
			if err == nil || sess.cardScale != 0 {
				t.Errorf("%s: err = %v, pushed %v; want an error and no push", c.name, err, sess.cardScale)
			}
			continue
		}
		if err != nil || sess.cardScale != c.want {
			t.Errorf("%s: err = %v, pushed %v; want %v", c.name, err, sess.cardScale, c.want)
		}
	}
}

// TestConsoleExecuteSQLConsultsDriverOverAnyDB: ExecuteSQL takes the
// same path as ExecuteQuery over any DB, not only *Engine: the active
// driver is consulted once per query, parse errors keep their text, and
// every call counts once.
func TestConsoleExecuteSQLConsultsDriverOverAnyDB(t *testing.T) {
	w := getWorld(t)
	ctx := context.Background()
	c := NewConsole(struct{ *Engine }{w.eng}, 23)
	d := &panicDriver{name: "counter"}
	c.RegisterDriver(d)
	if err := c.StartTask(ctx, d.Name()); err != nil {
		t.Fatal(err)
	}
	res, err := c.ExecuteSQL(ctx, w.test[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.algoCalled != 1 {
		t.Fatalf("driver Algo called %d times, want 1", d.algoCalled)
	}
	native, err := w.eng.ExecuteSQL(ctx, &Session{}, w.test[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != native.Count || math.Float64bits(res.Value) != math.Float64bits(native.Value) {
		t.Fatalf("console result %+v, native %+v", res, native)
	}
	const bad = "SELECT COUNT(*) FROM nosuchtable"
	_, want := sqlx.Parse(bad, w.eng.Cat)
	if want == nil {
		t.Fatalf("%q parsed", bad)
	}
	if _, err := c.ExecuteSQL(ctx, bad); err == nil || err.Error() != want.Error() {
		t.Fatalf("ExecuteSQL(%q) err = %v, want %v", bad, err, want)
	}
	if c.QueriesServed != 2 || d.algoCalled != 1 {
		t.Fatalf("QueriesServed = %d, algoCalled = %d; want 2, 1", c.QueriesServed, d.algoCalled)
	}
}
