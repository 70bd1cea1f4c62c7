package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// tinyRun is the whole benchmark at a fraction of its size: every
// workload, one pass of two rounds, the traced run included.
func tinyRun(t *testing.T, seed int64) (*runFile, string) {
	t.Helper()
	var sps []spec
	for _, sp := range specs() {
		sps = append(sps, sp.tiny())
	}
	var out bytes.Buffer
	rf, err := runAll(context.Background(), &out, sps, seed, protocol{Passes: 1, MinRounds: 2, Setups: 1}, t.TempDir())
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return rf, out.String()
}

// seed7 is one tiny run of seed 7, made once and shared by the tests.
var seed7 struct {
	once sync.Once
	rf   *runFile
	out  string
}

func seed7Run(t *testing.T) (*runFile, string) {
	t.Helper()
	seed7.once.Do(func() { seed7.rf, seed7.out = tinyRun(t, 7) })
	return seed7.rf, seed7.out
}

func TestSameSeedSameCounts(t *testing.T) {
	a, _ := seed7Run(t)
	ctx := context.Background()
	for _, sp := range specs() {
		// The same seed again, without the traced run.
		p, err := buildPrep(ctx, sp.tiny(), 7)
		if err != nil {
			t.Fatalf("%s seed 7: %v", sp.Name, err)
		}
		recs, err := measureEndToEnd(ctx, []*prep{p}, protocol{Passes: 1, MinRounds: 2, Setups: 1})
		if err != nil {
			t.Fatalf("%s seed 7: %v", sp.Name, err)
		}
		ra, rb := a.Workloads[sp.Name], recs[0]
		if ra.OpsHash != rb.OpsHash {
			t.Errorf("%s: same seed, op-sequence hashes %s and %s", sp.Name, ra.OpsHash, rb.OpsHash)
		}
		other, err := buildPrep(ctx, sp.tiny(), 8)
		if err != nil {
			t.Fatalf("%s seed 8: %v", sp.Name, err)
		}
		if ra.OpsHash == other.OpsHash {
			t.Errorf("%s: seeds 7 and 8 generated the same op sequence %s", sp.Name, ra.OpsHash)
		}
		if ra.UnstableRounds != 0 {
			t.Errorf("%s: %d round(s) answered differently from the first", sp.Name, ra.UnstableRounds)
		}
		for _, name := range []string{"work_units_per_query", "gmrl", "fail_ratio"} {
			if va, vb := ra.EndToEnd[name].Value, rb.EndToEnd[name].Value; va != vb {
				t.Errorf("%s: same seed, %s = %v and %v", sp.Name, name, va, vb)
			}
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestEveryDeclaredMetricIsPrintedOnce(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(body, &decl); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // metric -> unit
	nameRx := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, m := range decl.EndToEnd {
		want[m.Name] = m.Unit
		found := false
		for _, d := range endToEnd {
			if d.Name == m.Name {
				found = d.Across > 0
				if d.Unit != m.Unit || d.Better != m.Better || d.Across != m.Bound {
					t.Errorf("BENCHMARK.json declares %s as %+v, the harness as %+v", m.Name, m, d)
				}
			}
		}
		if !found {
			t.Errorf("BENCHMARK.json declares %s, the harness does not report it to the driver", m.Name)
		}
	}
	for _, m := range decl.PerLayer {
		want[m.Name] = m.Unit
	}
	driver := 0
	for _, d := range endToEnd {
		if d.Across > 0 {
			driver++
		}
	}
	if len(decl.EndToEnd) != driver || len(decl.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the harness reports %d+%d to the driver",
			len(decl.EndToEnd), len(decl.PerLayer), driver, len(perLayer))
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(specs()) {
		t.Errorf("BENCHMARK.json declares workloads %v, the harness has %d", names, len(specs()))
	}

	_, out := seed7Run(t)
	seen := map[[2]string]int{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		if unit, ok := want[f[1]]; ok {
			seen[[2]string{f[0], f[1]}]++
			if f[3] != unit {
				t.Errorf("%s %s printed with unit %q, declared %q", f[0], f[1], f[3], unit)
			}
		}
	}
	for _, w := range names {
		for m := range want {
			if !nameRx.MatchString(m) {
				t.Errorf("metric name %q", m)
			}
			if n := seen[[2]string{w, m}]; n != 1 {
				t.Errorf("%s %s printed %d times", w, m, n)
			}
		}
	}
}

// The blow-up guard must see the cross products a plan could form, not
// only what the query's joins produce.
func TestWorstCardCountsCrossProducts(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.02})
	truth := truthEstimator{exec.NewCardCache(exec.New(cat))}
	for _, q := range workload.GenWorkload(cat, workload.Options{Seed: 7, Count: 20, MinJoins: 2, MaxJoins: 2, MaxPreds: 3}) {
		worst := truth.worstCard(q)
		if whole := truth.Estimate(q); worst < whole {
			t.Errorf("%s: worst subset %v below the query's own cardinality %v", q.SQL(), worst, whole)
		}
		g := query.NewJoinGraph(q)
		for _, a := range g.Aliases {
			for _, b := range g.Aliases {
				if a == b || g.Connected(query.SetOf([]string{a, b})) {
					continue
				}
				ca := truth.Estimate(q.Subquery(query.SetOf([]string{a})))
				cb := truth.Estimate(q.Subquery(query.SetOf([]string{b})))
				if worst < ca*cb {
					t.Errorf("%s: worst subset %v below the cross product %s x %s = %v", q.SQL(), worst, a, b, ca*cb)
				}
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(seed int64, hash string, qps float64) *runFile {
		return &runFile{Env: envRecord{Seed: seed}, Workloads: map[string]*workloadRecord{"hit_adhoc": {
			OpsHash:  hash,
			EndToEnd: map[string]value{"qps": {Value: qps, Unit: "1/s"}, "fail_ratio": {Value: 0, Unit: "ratio"}},
		}}}
	}
	dir := t.TempDir()
	write := func(name string, rf *runFile) string {
		path := dir + "/" + name
		if err := writeRun(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("run_a.json", mk(7, "aa", 1000))
	for _, c := range []struct {
		name      string
		rf        *runFile
		worse, ok bool
	}{
		{"same seed, -1 %", mk(7, "aa", 990), false, true},
		{"same seed, -12 %: beyond the same-seed bound", mk(7, "aa", 880), true, true},
		{"other seed, -12 %: within the bound across seeds", mk(8, "bb", 880), false, true},
		{"other seed, -50 %", mk(8, "bb", 500), true, true},
		{"same seed, other ops: not the same benchmark", mk(7, "bb", 1000), false, false},
	} {
		var out bytes.Buffer
		worse, err := compareRuns(&out, base, write("run_b.json", c.rf))
		if worse != c.worse || (err == nil) != c.ok {
			t.Errorf("%s: worse=%v err=%v\n%s", c.name, worse, err, out.String())
		}
	}
}
