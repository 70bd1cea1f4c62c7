package learnedopt

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lqo/internal/metrics"
	"lqo/internal/query"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/steer_golden.txt from the current optimizers")

// TestLearnedSteeringGolden pins what the steering optimizers pick: the
// fingerprint of the plan each selects for every fixture test query and
// the bits of each one's total work, against testdata/steer_golden.txt.
func TestLearnedSteeringGolden(t *testing.T) {
	f := getFixture(t)
	var b strings.Builder
	for _, c := range []struct {
		name string
		mk   func() Optimizer
	}{
		{"bao", func() Optimizer { return NewBao() }},
		{"bao-explore", func() Optimizer { b := NewBao(); b.Explore = true; return b }},
		{"lero", func() Optimizer { return NewLero() }},
		{"lero-pointwise", func() Optimizer { return NewPointwiseLero() }},
		{"leon", func() Optimizer { return NewLEON() }},
	} {
		o := c.mk()
		if err := o.Train(context.Background(), f.lc); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var total float64
		for i, q := range f.test {
			p, err := o.Plan(context.Background(), q)
			if err != nil {
				t.Fatalf("%s query %d: %v", c.name, i, err)
			}
			fmt.Fprintf(&b, "%s %d %s\n", c.name, i, p.Fingerprint())
			lat, err := Measure(context.Background(), f.ex, q, p)
			if err != nil {
				t.Fatalf("%s query %d: %v", c.name, i, err)
			}
			total += lat
		}
		fmt.Fprintf(&b, "%s total-work-bits %#x\n", c.name, math.Float64bits(total))
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

// constEstimator estimates every sub-query at one value.
type constEstimator float64

func (c constEstimator) Estimate(*query.Query) float64 { return float64(c) }

// TestScaledEstimator: the scaled estimate is ClampCard(base ·
// factor^(k−1)) — clamped after scaling, so no factor turns a zero, NaN
// or negative base into a cardinality below 1. ClampCard floors only
// non-positive values: a positive product below 1 passes through, as the
// optimizer's own SanitizeCard keeps it.
func TestScaledEstimator(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		base   float64
		factor float64
		k      int
		want   float64
	}{
		{"0.01 on a 2-table zero base gives 1, not 0.01", 0, 0.01, 2, 1},
		{"0.01 on a 3-table zero base gives 1, not 1e-4", 0, 0.01, 3, 1},
		{"0.01 on a 2-table base of 50 gives 0.5", 50, 0.01, 2, 0.5},
		{"NaN base, k=1", nan, 10, 1, 1},
		{"NaN base, k=2", nan, 10, 2, 1},
		{"NaN base, k=3", nan, 0.01, 3, 1},
		{"negative base, k=1", -5, 10, 1, 1},
		{"negative base, k=2", -5, 10, 2, 1},
		{"negative base, k=3", -5, 0.01, 3, 1},
		{"factor 1 returns the base", 250, 1, 3, 250},
		{"factor 1 returns the clamped base", 0, 1, 3, 1},
		{"factor 1 keeps a positive base below 1", 0.25, 1, 3, 0.25},
		{"one table returns the base", 40, 100, 1, 40},
		{"one table returns the clamped base", math.Inf(1), 0.01, 1, metrics.MaxCard},
		{"scales by factor^(k-1)", 30, 10, 3, 3000},
	}
	for _, c := range cases {
		q := &query.Query{Refs: make([]query.TableRef, c.k)}
		got := (&ScaledEstimator{Base: constEstimator(c.base), Factor: c.factor}).Estimate(q)
		if got != c.want {
			t.Errorf("%s: Estimate = %v, want %v", c.name, got, c.want)
		}
	}
}
