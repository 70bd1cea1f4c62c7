package opt

import (
	"context"
	"testing"

	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// TestPipelineIdentityOnEnumerationOutput is the refactor's anchor: with
// sharding off, the default rewrite pipeline must be a semantic no-op on
// enumeration output — OptimizeCtx (enumerate + passes) returns a plan
// fingerprint-identical to the raw enumerator's across a generated
// workload. Enumeration already pushes each alias's filters into its
// scan, and a well-formed query has no duplicate or contradictory
// conjunct to fold, so the pipeline reaches fixpoint without firing.
// TestGoldenPlanIdentity's mutated cell pins the plans of queries that
// do have them.
func TestPipelineIdentityOnEnumerationOutput(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	qs := workload.GenWorkload(f.cat, workload.Options{Seed: 11, Count: 30, MaxJoins: 4, MaxPreds: 3})
	for i, q := range qs {
		raw, err := f.opt.enumerate(ctx, query.NewJoinGraph(q))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		full, trace, err := f.opt.OptimizeTraceCtx(ctx, query.NewJoinGraph(q))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if full.Fingerprint() != raw.Fingerprint() {
			t.Fatalf("query %d: pipeline changed the plan\nraw:  %s\nfull: %s", i, raw.String(), full.String())
		}
		for _, tr := range trace {
			if tr.Fired {
				t.Fatalf("query %d: pass fired on enumeration output: %v", i, tr)
			}
		}
	}
}

// TestOptimizeTraceCoversDefaultPasses checks that every round of the
// trace names exactly the default passes, DefaultPasses(0) when Passes
// is nil and DefaultPasses(n) under DefaultPipeline(n), in order, and
// that an unsharded plan of a well-formed query takes one round.
func TestOptimizeTraceCoversDefaultPasses(t *testing.T) {
	f := newFixture(t)
	for _, shards := range []int{0, 2} {
		o := f.opt.WithEstimator(f.opt.Est)
		if shards > 0 {
			o.Passes = plan.DefaultPipeline(shards)
		}
		_, trace, err := o.OptimizeTraceCtx(context.Background(), query.NewJoinGraph(chainQuery()))
		if err != nil {
			t.Fatal(err)
		}
		passes := plan.DefaultPasses(shards)
		if len(trace) == 0 || len(trace)%len(passes) != 0 {
			t.Fatalf("shards=%d: trace %v is not whole rounds of %d passes", shards, trace, len(passes))
		}
		for i, tr := range trace {
			if want := passes[i%len(passes)].Name(); tr.Pass != want || tr.Round != 1+i/len(passes) {
				t.Fatalf("shards=%d: trace[%d] = %s in round %d, want %s in round %d", shards, i, tr.Pass, tr.Round, want, 1+i/len(passes))
			}
		}
		if shards == 0 && len(trace) != len(passes) {
			t.Fatalf("unsharded plan took %d rounds: %v", trace[len(trace)-1].Round, trace)
		}
	}
}

// TestOptimizerShardsProducesMergePlans checks the optimizer-level
// sharding switch: Passes = DefaultPipeline(n ≥ 2) appends the
// shard-scans pass, and the
// resulting plan fans every SeqScan leaf out into a Merge node whose
// logical projection still matches the unsharded plan.
func TestOptimizerShardsProducesMergePlans(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	q := chainQuery()
	unsharded, err := f.opt.OptimizeCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	so := f.opt.WithEstimator(f.opt.Est) // shallow copy, same estimator
	so.Passes = plan.DefaultPipeline(3)
	sharded, trace, err := so.OptimizeTraceCtx(ctx, query.NewJoinGraph(q))
	if err != nil {
		t.Fatal(err)
	}
	firedShard := false
	for _, tr := range trace {
		if tr.Pass == "shard-scans" && tr.Fired {
			firedShard = true
		}
	}
	merges := 0
	sharded.Walk(func(n *plan.Node) {
		if n.Op == plan.Merge {
			merges++
			if n.Shards != 3 {
				t.Fatalf("Merge has %d shards, want 3", n.Shards)
			}
		}
	})
	seqScans := 0
	unsharded.Walk(func(n *plan.Node) {
		if n.Op == plan.SeqScan && n.IsLeaf() {
			seqScans++
		}
	})
	if seqScans > 0 && (!firedShard || merges != seqScans) {
		t.Fatalf("shards=3: %d Merge nodes for %d SeqScan leaves (pass fired: %v)", merges, seqScans, firedShard)
	}
	// The logical tree (Merge standing in for its scan) keeps the join
	// order: sharding must never change what the optimizer chose.
	if got, want := join(leafOrder(sharded)), join(leafOrder(unsharded)); got != want {
		t.Fatalf("sharding changed the join order: %s vs %s", got, want)
	}
	// Disabling rewrites entirely must also be possible: an explicit empty
	// pipeline returns raw enumeration.
	so.Passes = &plan.PassPipeline{}
	rawOnly, err := so.OptimizeCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rawOnly.Walk(func(n *plan.Node) {
		if n.Op == plan.Merge {
			t.Fatal("explicit empty pipeline still sharded the plan")
		}
	})
}

// leafOrder lists a plan's leaf aliases left to right — its linearized
// join order — with a Merge node standing in for the scan it sharded.
func leafOrder(p *plan.Node) []string {
	var out []string
	p.Walk(func(n *plan.Node) {
		if n.IsLeaf() {
			out = append(out, n.Alias)
		}
	})
	return out
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}
