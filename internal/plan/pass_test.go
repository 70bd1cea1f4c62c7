package plan

import (
	"context"
	"math"
	"strings"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

// passQuery returns the two-table query samplePlan computes, with a
// predicate on a.v — the logical source of truth the passes sync plans to.
func passQuery() *query.Query {
	return &query.Query{
		Refs: []query.TableRef{{Alias: "a", Table: "a"}, {Alias: "b", Table: "b"}},
		Joins: []query.Join{
			{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"},
		},
		Preds: []query.Pred{{Alias: "a", Column: "v", Op: query.Gt, Val: data.IntVal(3)}},
	}
}

// snapshot captures everything a pass could corrupt in an input tree:
// structure + literals (fingerprint), annotations, and the identity of
// every node. Comparing snapshots before and after a pipeline run is the
// purity check — clone-on-write passes must leave all of it untouched.
type treeSnapshot struct {
	fingerprint string
	rendered    string
	nodes       []*Node
	estCards    []float64
	trueCards   []float64
	preds       []int
}

func snapshotTree(n *Node) treeSnapshot {
	s := treeSnapshot{fingerprint: n.Fingerprint(), rendered: n.String()}
	n.Walk(func(m *Node) {
		s.nodes = append(s.nodes, m)
		s.estCards = append(s.estCards, m.EstCard)
		s.trueCards = append(s.trueCards, m.TrueCard)
		s.preds = append(s.preds, len(m.Preds))
	})
	return s
}

func (s treeSnapshot) check(t *testing.T, n *Node) {
	t.Helper()
	if n.Fingerprint() != s.fingerprint {
		t.Fatalf("input tree fingerprint mutated:\nbefore %s\nafter  %s", s.fingerprint, n.Fingerprint())
	}
	if n.String() != s.rendered {
		t.Fatalf("input tree rendering mutated:\nbefore:\n%s\nafter:\n%s", s.rendered, n.String())
	}
	i := 0
	n.Walk(func(m *Node) {
		if i >= len(s.nodes) || s.nodes[i] != m {
			t.Fatalf("input tree pointer graph changed at node %d", i)
		}
		if math.Float64bits(m.EstCard) != math.Float64bits(s.estCards[i]) ||
			math.Float64bits(m.TrueCard) != math.Float64bits(s.trueCards[i]) ||
			len(m.Preds) != s.preds[i] {
			t.Fatalf("input tree annotations mutated at node %d", i)
		}
		i++
	})
	if i != len(s.nodes) {
		t.Fatalf("input tree node count changed: %d -> %d", len(s.nodes), i)
	}
}

func TestPipelinePurityAndFixpoint(t *testing.T) {
	q := passQuery()
	// Duplicate the pushed conjunct so constfold must fire.
	root := NewJoin(HashJoin,
		NewScan(SeqScan, "a", "a", []query.Pred{q.Preds[0], q.Preds[0]}),
		NewScan(SeqScan, "b", "b", nil),
		q.Joins)
	before := snapshotTree(root)

	pl := DefaultPipeline(2)
	out, trace, err := pl.Run(context.Background(), root, &PassContext{Query: q, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	before.check(t, root) // input tree untouched even though passes fired
	if out == root {
		t.Fatal("firing pipeline returned the input root")
	}

	fired := map[string]bool{}
	lastRound := 0
	for _, tr := range trace {
		if tr.Fired {
			fired[tr.Pass] = true
		}
		lastRound = tr.Round
	}
	if !fired["constfold"] || !fired["shard-scans"] {
		t.Fatalf("expected constfold and shard-scans to fire, trace: %v", trace)
	}
	if lastRound < 2 {
		t.Fatalf("fixpoint needs a clean confirming round, trace ended at round %d", lastRound)
	}
	// The final round must be clean — that is what fixpoint means.
	for _, tr := range trace {
		if tr.Round == lastRound && tr.Fired {
			t.Fatalf("last round still fired: %v", tr)
		}
	}

	// Idempotency: re-running the pipeline on its own output is a no-op
	// and returns the same root.
	out2, trace2, err := pl.Run(context.Background(), out, &PassContext{Query: q, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out2 != out {
		t.Fatal("pipeline on fixpoint output returned a new tree")
	}
	for _, tr := range trace2 {
		if tr.Fired {
			t.Fatalf("pass fired on fixpoint output: %v", tr)
		}
	}
}

func TestDefaultPasses(t *testing.T) {
	for shards, want := range map[int]string{0: "constfold", 1: "constfold", 2: "constfold shard-scans"} {
		var names []string
		for _, p := range DefaultPasses(shards) {
			names = append(names, p.Name())
		}
		if got := strings.Join(names, " "); got != want {
			t.Errorf("DefaultPasses(%d) = %s, want %s", shards, got, want)
		}
	}
}

func TestPipelineEmptyAndNilContext(t *testing.T) {
	root := samplePlan()
	var pl PassPipeline // zero value: identity transform
	out, trace, err := pl.Run(context.Background(), root, nil)
	if err != nil || out != root || len(trace) != 0 {
		t.Fatalf("empty pipeline: out=%p trace=%v err=%v", out, trace, err)
	}
}

func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := DefaultPipeline(0).Run(ctx, samplePlan(), &PassContext{Query: passQuery()})
	if err == nil {
		t.Fatal("cancelled pipeline should report the context error")
	}
}

func TestConstFoldDedupAndContradiction(t *testing.T) {
	p := query.Pred{Alias: "a", Column: "v", Op: query.Gt, Val: data.IntVal(3)}
	dup := NewScan(SeqScan, "a", "a", []query.Pred{p, p})
	out, fired := ConstFoldPass{}.Rewrite(context.Background(), dup, &PassContext{})
	if !fired || len(out.Preds) != 1 {
		t.Fatalf("duplicate conjunct not folded: fired=%v preds=%v", fired, out.Preds)
	}
	if len(dup.Preds) != 2 {
		t.Fatal("constfold mutated its input")
	}

	// First occurrences win, in order, however the duplicates interleave.
	q := query.Pred{Alias: "a", Column: "w", Op: query.Le, Val: data.IntVal(9)}
	r := query.Pred{Alias: "a", Column: "v", Op: query.Lt, Val: data.IntVal(8)}
	out, _ = ConstFoldPass{}.Rewrite(context.Background(), NewScan(SeqScan, "a", "a", []query.Pred{p, q, p, r, q}), &PassContext{})
	if got := out.Fingerprint(); got != NewScan(SeqScan, "a", "a", []query.Pred{p, q, r}).Fingerprint() {
		t.Fatalf("interleaved duplicates folded to %s", got)
	}

	contra := NewScan(SeqScan, "a", "a", []query.Pred{
		{Alias: "a", Column: "v", Op: query.Gt, Val: data.IntVal(10)},
		{Alias: "a", Column: "v", Op: query.Lt, Val: data.IntVal(5)},
	})
	contra.EstCard = 100
	out, fired = ConstFoldPass{}.Rewrite(context.Background(), contra, &PassContext{})
	if !fired || out.EstCard != 0 {
		t.Fatalf("contradiction not annotated: fired=%v est=%v", fired, out.EstCard)
	}

	// Boundary equality (v >= 5 and v <= 5) is satisfiable — must not fold.
	edge := NewScan(SeqScan, "a", "a", []query.Pred{
		{Alias: "a", Column: "v", Op: query.Ge, Val: data.IntVal(5)},
		{Alias: "a", Column: "v", Op: query.Le, Val: data.IntVal(5)},
	})
	if _, fired := (ConstFoldPass{}).Rewrite(context.Background(), edge, &PassContext{}); fired {
		t.Fatal("satisfiable boundary folded")
	}

	// Unbound placeholders disable folding for their predicate.
	param := NewScan(SeqScan, "a", "a", []query.Pred{
		{Alias: "a", Column: "v", Op: query.Gt, Val: data.IntVal(10), Param: 1},
		{Alias: "a", Column: "v", Op: query.Lt, Val: data.IntVal(5)},
	})
	if _, fired := (ConstFoldPass{}).Rewrite(context.Background(), param, &PassContext{}); fired {
		t.Fatal("unbound placeholder predicate folded")
	}

	// Eq vs Ne on the same literal is a definite contradiction.
	eqne := NewScan(SeqScan, "a", "a", []query.Pred{
		{Alias: "a", Column: "v", Op: query.Eq, Val: data.IntVal(7)},
		{Alias: "a", Column: "v", Op: query.Ne, Val: data.IntVal(7)},
	})
	eqne.EstCard = 3
	out, fired = ConstFoldPass{}.Rewrite(context.Background(), eqne, &PassContext{})
	if !fired || out.EstCard != 0 {
		t.Fatalf("Eq/Ne contradiction not folded: fired=%v est=%v", fired, out.EstCard)
	}
}

// TestConstFoldZeroesEmptySubtree checks that an unsatisfiable scan
// empties exactly its own path to the root: the scan (a Merge leaf when
// sharded) and every join above it annotate 0, while the sibling subtree
// keeps its estimates.
func TestConstFoldZeroesEmptySubtree(t *testing.T) {
	contra := []query.Pred{
		{Alias: "c", Column: "v", Op: query.Gt, Val: data.IntVal(10)},
		{Alias: "c", Column: "v", Op: query.Lt, Val: data.IntVal(5)},
	}
	scan := func(alias string, preds []query.Pred) *Node {
		n := NewScan(SeqScan, alias, alias, preds)
		n.EstCard = 100
		return n
	}
	ab := NewJoin(HashJoin, scan("a", nil), scan("b", nil), []query.Join{
		{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"}})
	ab.EstCard = 50
	root := NewJoin(HashJoin, ab, scan("c", contra), []query.Join{
		{LeftAlias: "b", LeftCol: "id", RightAlias: "c", RightCol: "b_id"}})
	root.EstCard = 20

	for _, shards := range []int{0, 2} {
		in := root
		if shards >= 2 {
			in, _ = ShardScans(shards).Rewrite(context.Background(), root, &PassContext{})
		}
		before := snapshotTree(in)
		out, fired := ConstFoldPass{}.Rewrite(context.Background(), in, &PassContext{})
		if !fired {
			t.Fatalf("shards=%d: contradictory scan not folded", shards)
		}
		before.check(t, in)
		c := out.Right
		if out.EstCard != 0 || c.EstCard != 0 {
			t.Fatalf("shards=%d: root/scan cards = %v / %v, want 0", shards, out.EstCard, c.EstCard)
		}
		if shards >= 2 && (c.Op != Merge || c.Shards != shards) {
			t.Fatalf("shards=%d: contradictory scan is %s over %d shards", shards, c.Op, c.Shards)
		}
		out.Left.Walk(func(m *Node) {
			want := 100.0
			if m == out.Left {
				want = 50
			}
			if m.EstCard != want {
				t.Fatalf("shards=%d: sibling %s card %v, want %v", shards, m.Op, m.EstCard, want)
			}
		})
		if _, again := (ConstFoldPass{}).Rewrite(context.Background(), out, &PassContext{}); again {
			t.Fatalf("shards=%d: constfold not idempotent", shards)
		}
	}
}

func TestRenderTrace(t *testing.T) {
	if RenderTrace(nil) != "" {
		t.Fatal("empty trace should render empty")
	}
	trace := []PassTrace{
		{Pass: "constfold", Round: 1, Fired: true, NodesBefore: 3, NodesAfter: 3},
		{Pass: "shard-scans", Round: 1, Fired: true, NodesBefore: 3, NodesAfter: 9},
		{Pass: "constfold", Round: 2},
	}
	s := RenderTrace(trace)
	for _, frag := range []string{"Rewrite passes:", "round 1:", "round 2:", "constfold: fired (3 nodes)", "shard-scans: fired (3 -> 9 nodes)", "constfold: -"} {
		if !strings.Contains(s, frag) {
			t.Errorf("trace rendering missing %q:\n%s", frag, s)
		}
	}
}
