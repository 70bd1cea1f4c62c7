package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lqo/internal/exec"
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

// TestE5OnTinyEnv: every registered planner gets a row, and the native
// row, the reference of both measures, reads 1.00 in GMRL and in every
// deep-join cost cell, with no refused plan.
func TestE5OnTinyEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	env, err := NewEnv("stats", tinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := E5EndToEnd(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(planners) {
		t.Fatalf("E5 rows = %d, want %d", len(rep.Rows), len(planners))
	}
	native := rep.Rows[0]
	if native[1] != "native" || native[3] != "1.00" || native[7] != "0" {
		t.Fatalf("native row: %v", native)
	}
	for _, cell := range native[8:] {
		if cell != "1.00" {
			t.Fatalf("native not the cost reference: %v", native)
		}
	}
}

// TestNativeCostMatchesEstCost: re-costing the native DP's own plan under
// the native model reproduces its EstCost exactly on the deep-join sets,
// so E5's native cost cells are the DP's own costs.
func TestNativeCostMatchesEstCost(t *testing.T) {
	env, err := NewEnv("stats", tinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := deepJoinSets(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range sets {
		for _, q := range qs {
			p, err := env.Base.OptimizeCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if c := nativeCost(env.Base, q, p); c != p.EstCost {
				t.Errorf("%s: re-cost %v, EstCost %v", q.SQL(), c, p.EstCost)
			}
		}
	}
}

// TestAllPlannersProduceCorrectPlans: every registered planner appears
// once, with a class, under its own name; it trains; once trained it
// refuses to plan under a cancelled context; and its plans return the
// canonical plan's count.
func TestAllPlannersProduceCorrectPlans(t *testing.T) {
	env, err := NewEnv("stats", tinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	lc := trainingContext(env, 6)
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	seen := map[string]bool{}
	for _, pl := range planners {
		if seen[pl.Name] || pl.Class == "" {
			t.Errorf("%s: registered twice or without a class", pl.Name)
		}
		seen[pl.Name] = true
		t.Run(pl.Name, func(t *testing.T) {
			o := pl.Make()
			if o.Name() != pl.Name {
				t.Fatalf("registered as %s, names itself %s", pl.Name, o.Name())
			}
			if err := o.Train(ctx, lc); err != nil {
				t.Fatal(err)
			}
			if _, err := o.Plan(cancelled, env.Test[0].Q); !errors.Is(err, context.Canceled) {
				t.Fatalf("plan under a cancelled ctx: %v, want context.Canceled", err)
			}
			for _, l := range env.Test[:5] {
				p, err := o.Plan(ctx, l.Q)
				if err != nil {
					t.Fatalf("%s: %v", l.Q.SQL(), err)
				}
				got, err := env.Ex.RunCtx(ctx, l.Q, p)
				if err != nil {
					t.Fatalf("%s: %v", l.Q.SQL(), err)
				}
				canonical, _ := exec.CanonicalPlan(l.Q)
				want, err := env.Ex.RunCtx(ctx, l.Q, canonical)
				if err != nil {
					t.Fatal(err)
				}
				if got.Count != want.Count {
					t.Fatalf("%s: count %d, canonical %d", l.Q.SQL(), got.Count, want.Count)
				}
			}
		})
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
		{"E5", E5EndToEnd},
		{"E6", E6Eraser},
		{"E8", E8Ablations},
	} {
		if _, err := e.run(cancelled, env); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled ctx: %v, want context.Canceled", e.id, err)
		}
	}
}

// generatedBlock matches one generated table in EXPERIMENTS.md: the
// command that prints it, then its output in a fenced block.
var generatedBlock = regexp.MustCompile("(?s)<!-- BEGIN GENERATED: lqo-bench -exp (E[0-9]+) -seed ([0-9]+) -->\n```\n(.*?)```\n<!-- END GENERATED -->")

// TestExperimentsDocIsGenerated: every generated block in EXPERIMENTS.md
// is the table its command prints at quick scale, so a stale cell fails
// here. A report's wall-clock columns (Report.WallClock) are compared for
// presence only; every other cell, the title and the notes exactly.
func TestExperimentsDocIsGenerated(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := generatedBlock.FindAllSubmatch(doc, -1)
	if len(blocks) == 0 {
		t.Fatal("EXPERIMENTS.md has no generated block")
	}
	for _, b := range blocks {
		id, want := string(b[1]), string(b[3])
		seed, err := strconv.ParseInt(string(b[2]), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.ID == id })
		if i < 0 {
			t.Fatalf("generated block for unknown experiment %s", id)
		}
		env, err := NewEnv("stats", QuickScale(), seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Experiments[i].Run(context.Background(), env)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.String()
		if len(rep.WallClock) > 0 {
			got, want = tableCells(got, rep.WallClock), tableCells(want, rep.WallClock)
		}
		if got != want {
			t.Errorf("EXPERIMENTS.md's %s block is stale; paste the table `go run ./cmd/lqo-bench -exp %s -seed %d` prints:\n%s", id, id, seed, rep.String())
		}
	}
}

// tableCells renders a report's text one cell per field, the columns
// located by its separator line, with every non-empty cell of a wall-clock
// column read as "<wall-clock>". Two renderings then compare equal when
// they differ only in timings, which also move the columns after a
// timing column. The title and the notes pass through as they are.
func tableCells(text string, wall []int) string {
	lines := strings.Split(text, "\n")
	if len(lines) < 3 {
		return text
	}
	var spans [][2]int
	for sep, i := lines[2], 0; i < len(sep); {
		if sep[i] != '-' {
			i++
			continue
		}
		j := i
		for j < len(sep) && sep[j] == '-' {
			j++
		}
		spans = append(spans, [2]int{i, j})
		i = j
	}
	if len(spans) == 0 {
		return text
	}
	var b strings.Builder
	for k, ln := range lines {
		if k == 0 || ln == "" || strings.HasPrefix(ln, "note: ") {
			b.WriteString(ln + "\n")
			continue
		}
		if k == 2 {
			fmt.Fprintf(&b, "%d columns\n", len(spans))
			continue
		}
		for c, sp := range spans {
			cell := ""
			if sp[0] < len(ln) {
				cell = strings.TrimSpace(ln[sp[0]:min(sp[1], len(ln))])
			}
			if k > 2 && cell != "" && slices.Contains(wall, c) {
				cell = "<wall-clock>"
			}
			b.WriteString(cell + "|")
		}
		if end := spans[len(spans)-1][1]; end < len(ln) {
			b.WriteString(strings.TrimSpace(ln[end:])) // a cell wider than its column
		}
		b.WriteString("\n")
	}
	return b.String()
}
