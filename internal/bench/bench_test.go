package bench

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"lqo/internal/learnedopt"
	"lqo/internal/plan"
	"lqo/internal/query"
)

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"name", "value"},
	}
	r.AddRow("alpha", "1.0")
	r.AddRow("verylongname", "2.0")
	r.Notes = append(r.Notes, "a note")
	out := r.String()
	for _, frag := range []string{"== EX: demo ==", "alpha", "verylongname", "note: a note", "----"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, out)
		}
	}
	// Columns align: every data line at least as wide as the widest cell.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestF(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{3.14159, "3.14"},
		{42.4242, "42.4"},
		{12345, "12345"},
		{2.5e8, "2.50e+08"},
	}
	for _, c := range cases {
		if got := F(c.in); got != c.want {
			t.Errorf("F(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNewEnvUnknownDataset(t *testing.T) {
	if _, err := NewEnv("nope", QuickScale(), 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// tinyScale keeps the environment-construction integration test fast.
func tinyScale() Scale { return Scale{Data: 0.03, Train: 12, Test: 6} }

func TestNewEnvBuildsConsistentSplits(t *testing.T) {
	env, err := NewEnv("stats", tinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Train) != 12 || len(env.Test) != 6 {
		t.Fatalf("splits = %d/%d", len(env.Train), len(env.Test))
	}
	ctx := env.CardestContext()
	if len(ctx.Train) != 12 {
		t.Fatalf("cardest ctx train = %d", len(ctx.Train))
	}
	for _, l := range env.Train {
		if err := l.Q.Validate(env.Cat); err != nil {
			t.Fatal(err)
		}
	}
	// Determinism: same seed, same labels.
	env2, err := NewEnv("stats", tinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range env.Train {
		if env.Train[i].Card != env2.Train[i].Card || env.Train[i].Q.Key() != env2.Train[i].Q.Key() {
			t.Fatal("environment not deterministic")
		}
	}
}

func TestCollectPlansExecutes(t *testing.T) {
	env, err := NewEnv("stats", tinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := CollectPlans(context.Background(), env, env.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < len(env.Test) {
		t.Fatalf("collected %d plans for %d queries", len(plans), len(env.Test))
	}
	for _, tp := range plans {
		if tp.Latency <= 0 {
			t.Fatal("plan with zero latency")
		}
	}
}

func TestE1OnTinyEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	env, err := NewEnv("tpch", tinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := E1Cardinality(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 15 {
		t.Fatalf("E1 rows = %d", len(rep.Rows))
	}
	if !strings.Contains(rep.String(), "histogram") {
		t.Fatal("E1 missing histogram row")
	}
}

func TestE4OnTinyEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	env, err := NewEnv("stats", tinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := E4JoinOrder(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	// DP row must be all 1.00.
	for _, row := range rep.Rows {
		if row[0] == "dp" {
			for _, cell := range row[1:] {
				if cell != "1.00" {
					t.Fatalf("dp not optimal: %v", row)
				}
			}
		}
	}
}

// refusingOptimizer plans every query as a scan of a table the catalog
// lacks: a plan the executor refuses.
type refusingOptimizer struct{}

func (refusingOptimizer) Name() string                                     { return "refusing" }
func (refusingOptimizer) Train(context.Context, *learnedopt.Context) error { return nil }
func (refusingOptimizer) Plan(context.Context, *query.Query) (*plan.Node, error) {
	return plan.NewScan(plan.SeqScan, "x", "no_such_table", nil), nil
}

// TestRefusedPlansChargeNative: a learned plan the executor refuses costs
// the native plan's latency and counts as failed; the native optimizer's
// own refusal is an error.
func TestRefusedPlansChargeNative(t *testing.T) {
	env, err := NewEnv("stats", tinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	native := learnedopt.NewNative()
	ctx := context.Background()
	if err := native.Train(ctx, &learnedopt.Context{Cat: env.Cat, Stats: env.Stats, Ex: env.Ex, Base: env.Base}); err != nil {
		t.Fatal(err)
	}
	natLats, failed, err := optimizerLatencies(ctx, env, native, nil)
	if err != nil || failed != 0 {
		t.Fatalf("native: %d failed, %v", failed, err)
	}
	lats, failed, err := optimizerLatencies(ctx, env, refusingOptimizer{}, natLats)
	if err != nil || failed != len(env.Test) || !slices.Equal(lats, natLats) {
		t.Fatalf("refused plans: latencies %v (native %v), %d failed, %v", lats, natLats, failed, err)
	}
	if _, _, err := optimizerLatencies(ctx, env, refusingOptimizer{}, nil); err == nil {
		t.Fatal("a refused plan without a native fallback did not fail")
	}
}

// TestLearnedPlannerExperimentsHonorCancellation: the experiments that
// train and plan with learned planners run them under the caller's
// context, so a cancelled one fails each of them with context.Canceled.
func TestLearnedPlannerExperimentsHonorCancellation(t *testing.T) {
	env, err := NewEnv("stats", tinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range []struct {
		id  string
		run func(context.Context, *Env) (*Report, error)
	}{
		{"E4", E4JoinOrder},
		{"E5", E5EndToEnd},
		{"E6", E6Eraser},
		{"E8", E8Ablations},
	} {
		if _, err := e.run(cancelled, env); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled ctx: %v, want context.Canceled", e.id, err)
		}
	}
}
