package adapt

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/guard"
	"lqo/internal/opt"
	"lqo/internal/query"
	"lqo/internal/sqlx"
)

func mustParse(t *testing.T, sql string) *query.Query {
	t.Helper()
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	q, err := sqlx.Parse(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCollectorDedupAndOrder(t *testing.T) {
	c := NewCollector(10)
	qa := mustParse(t, "SELECT COUNT(*) FROM users WHERE users.age > 30;")
	qb := mustParse(t, "SELECT COUNT(*) FROM posts WHERE posts.score > 5;")
	c.Add(qa, 100)
	c.Add(qb, 200)
	c.Add(qa, 150) // refresh in place, keeps position
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	s := c.Samples()
	if s[0].Card != 150 || s[1].Card != 200 {
		t.Fatalf("samples = %+v", s)
	}
	if s[0].Q.Key() != qa.Key() {
		t.Fatal("refresh changed insertion order")
	}
}

func TestCollectorBoundedFIFO(t *testing.T) {
	c := NewCollector(3)
	qs := make([]*query.Query, 5)
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	for i := range qs {
		q, err := sqlx.Parse(
			fmt.Sprintf("SELECT COUNT(*) FROM users WHERE users.age > %d;", 20+i), cat)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
		c.Add(q, float64(i))
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want cap 3", c.Len())
	}
	s := c.Samples()
	// Oldest two evicted; survivors in insertion order.
	for i, want := range []float64{2, 3, 4} {
		if s[i].Card != want {
			t.Fatalf("samples = %+v", s)
		}
	}
	// Refreshing an evicted key re-inserts it (evicting the now-oldest).
	c.Add(qs[0], 99)
	s = c.Samples()
	if s[2].Card != 99 || s[0].Card != 3 {
		t.Fatalf("after re-insert: %+v", s)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset left labels behind")
	}
}

func TestTrainPanicIsolated(t *testing.T) {
	boom := func(ctx context.Context, tc *cardest.Context) (opt.CardEstimator, error) {
		panic("training exploded")
	}
	est, err := Train(context.Background(), "adapt-test", boom, &cardest.Context{})
	if est != nil {
		t.Fatal("panicking trainer returned an estimator")
	}
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *guard.PanicError", err)
	}
}

func TestTrainHonorsCancellation(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	slow := func(ctx context.Context, tc *cardest.Context) (opt.CardEstimator, error) {
		close(started)
		<-release
		return nil, errors.New("never seen")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Train(ctx, "adapt-test", slow, &cardest.Context{})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Train returned %v, want context.Canceled", err)
	}
	close(release) // let the abandoned goroutine finish
}

func TestRetrainRefreshesStatsAfterDrift(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 17, Scale: 0.05})
	// Predicate just past the pre-drift maximum: only domain-shifted rows
	// match, so the t0 model must estimate ~0 while a retrained one sees
	// the new region.
	views := cat.Table("posts").Column("views")
	mx := views.Ints[0]
	for _, v := range views.Ints {
		if v > mx {
			mx = v
		}
	}
	q, err := sqlx.Parse(fmt.Sprintf("SELECT COUNT(*) FROM posts WHERE posts.views > %d;", mx), cat)
	if err != nil {
		t.Fatal(err)
	}
	build := Retrain("histogram")
	before, err := Train(context.Background(), "adapt-test", build, &cardest.Context{Cat: cat, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	datagen.ApplyDrift(cat, datagen.DriftOptions{Seed: 9, Fraction: 1.0, DomainShift: 0.8})
	after, err := Train(context.Background(), "adapt-test", build, &cardest.Context{Cat: cat, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Execution truth for the drifted data.
	ex := exec.New(cat)
	truth, err := exec.NewCardCache(ex).TrueCard(q)
	if err != nil {
		t.Fatal(err)
	}
	eb := before.Estimate(q)
	ea := after.Estimate(q)
	if qerr(ea, truth) >= qerr(eb, truth) {
		t.Fatalf("retrained estimate no better: before %g after %g truth %g", eb, ea, truth)
	}
}

func qerr(est, truth float64) float64 {
	if est < 1 {
		est = 1
	}
	if truth < 1 {
		truth = 1
	}
	if est > truth {
		return est / truth
	}
	return truth / est
}

func TestRetrainUnknownEstimator(t *testing.T) {
	_, err := Train(context.Background(), "adapt-test", Retrain("no-such-model"), &cardest.Context{})
	if err == nil {
		t.Fatal("unknown estimator name did not error")
	}
}
