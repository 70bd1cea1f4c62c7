package pilotscope

import (
	"context"
	"errors"
	"strings"
	"testing"

	"lqo/internal/guard"
	"lqo/internal/plan"
	"lqo/internal/sqlx"
)

func TestSessionResetClearsAllState(t *testing.T) {
	w := getWorld(t)
	ctx := context.Background()
	q, err := sqlx.Parse(w.test[0], w.eng.Cat)
	if err != nil {
		t.Fatal(err)
	}
	sess := &Session{Query: q}
	if err := w.eng.Push(ctx, sess, PushHints, plan.HintSet{NoHashJoin: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.eng.Push(ctx, sess, PushCardScale, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := w.eng.Push(ctx, sess, PushCards, map[string]float64{q.Key(): 42}); err != nil {
		t.Fatal(err)
	}
	planAny, err := w.eng.Pull(ctx, sess, PullPlan, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.eng.Push(ctx, sess, PushPlan, planAny.(*plan.Node)); err != nil {
		t.Fatal(err)
	}
	if sess.hints == nil || sess.cardScale == 0 || sess.cards == nil || sess.forced == nil {
		t.Fatalf("setup failed to populate session: %+v", sess)
	}

	sess.Reset()
	if sess.hints != nil {
		t.Error("Reset left hints")
	}
	if sess.cardScale != 0 {
		t.Error("Reset left cardScale")
	}
	if sess.cards != nil {
		t.Error("Reset left cards")
	}
	if sess.forced != nil {
		t.Error("Reset left forced plan")
	}
	// A reset session plans exactly like a fresh one.
	a, err := w.eng.Pull(ctx, sess, PullPlan, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.eng.Pull(ctx, &Session{Query: q}, PullPlan, q)
	if err != nil {
		t.Fatal(err)
	}
	if a.(*plan.Node).Fingerprint() != b.(*plan.Node).Fingerprint() {
		t.Fatal("reset session plans differently from a fresh session")
	}
}

func TestPushPullRejectUnknownKinds(t *testing.T) {
	w := getWorld(t)
	ctx := context.Background()
	err := w.eng.Push(ctx, &Session{}, PushKind(999), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown push kind") {
		t.Fatalf("Push(999) err = %v", err)
	}
	_, err = w.eng.Pull(ctx, &Session{}, PullKind(999), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown pull kind") {
		t.Fatalf("Pull(999) err = %v", err)
	}
}

func TestEnginePushPullHonorContext(t *testing.T) {
	w := getWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.eng.Push(ctx, &Session{}, PushCardScale, 1.0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Push err = %v, want context.Canceled", err)
	}
	if _, err := w.eng.Pull(ctx, &Session{}, PullCatalog, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Pull err = %v, want context.Canceled", err)
	}
	if _, err := w.eng.ExecuteSQL(ctx, &Session{}, w.test[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteSQL err = %v, want context.Canceled", err)
	}
}

// panicDriver misbehaves on demand to exercise the console's guardrails.
type panicDriver struct {
	name       string
	initPanics bool
	algoPanics bool
	algoCalled int
	initCalled int
}

func (d *panicDriver) Name() string             { return d.name }
func (d *panicDriver) Injection() InjectionType { return InjectCardinalities }
func (d *panicDriver) Init(ctx *InitContext) error {
	d.initCalled++
	if d.initPanics {
		panic("panicDriver: init blew up")
	}
	return nil
}
func (d *panicDriver) Algo(ctx context.Context, sess *Session) error {
	d.algoCalled++
	if d.algoPanics {
		panic("panicDriver: algo blew up")
	}
	return nil
}

func TestConsoleRecoverInitPanic(t *testing.T) {
	w := getWorld(t)
	ctx := context.Background()
	d := &panicDriver{name: "init-bomb", initPanics: true}
	w.console.RegisterDriver(d)
	err := w.console.StartTask(ctx, "init-bomb")
	if err == nil {
		t.Fatal("panicking Init did not surface as an error")
	}
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped *guard.PanicError", err)
	}
	if w.console.ActiveDriver() == "init-bomb" {
		t.Fatal("failed driver was activated")
	}
	// The console is still fully operational.
	if _, err := w.console.ExecuteSQL(ctx, w.test[0]); err != nil {
		t.Fatalf("console broken after init panic: %v", err)
	}
}

func TestConsoleRecoverAlgoPanicAndBreakerTrips(t *testing.T) {
	w := getWorld(t)
	ctx := context.Background()
	d := &panicDriver{name: "algo-bomb", algoPanics: true}
	w.console.RegisterDriver(d)
	if err := w.console.StartTask(ctx, "algo-bomb"); err != nil {
		t.Fatal(err)
	}
	defer w.console.StopTask()

	failsBefore, panicsBefore := w.console.DriverFailures, w.console.DriverPanics
	const n = 12
	for i := 0; i < n; i++ {
		res, err := w.console.ExecuteSQL(ctx, w.test[i%len(w.test)])
		if err != nil || res == nil {
			t.Fatalf("query %d not served despite panicking driver: %v", i, err)
		}
	}
	if w.console.DriverPanics <= panicsBefore {
		t.Fatal("algo panics were not counted")
	}
	if w.console.DriverFailures <= failsBefore {
		t.Fatal("algo failures were not counted")
	}
	br := w.console.breakers["algo-bomb"]
	if br == nil || br.Trips() == 0 {
		t.Fatalf("breaker never tripped (breaker=%v)", br)
	}
	if w.console.BreakerSkips == 0 {
		t.Fatal("open breaker never skipped the driver")
	}
	// The breaker stopped consulting the driver: far fewer Algo calls
	// than queries.
	if d.algoCalled >= n {
		t.Fatalf("algoCalled = %d, want < %d (breaker should gate)", d.algoCalled, n)
	}
}
