package plan

import (
	"context"
	"strings"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

func TestShardScansShape(t *testing.T) {
	root := samplePlan() // HashJoin(SeqScan a, IndexScan b)
	out, fired := ShardScans(4).Rewrite(context.Background(), root, &PassContext{})
	if !fired {
		t.Fatal("shard-scans should fire on a SeqScan leaf")
	}
	if root.Left.Op != SeqScan || root.Left.Shards != 0 {
		t.Fatal("shard-scans mutated its input")
	}
	m := out.Left
	if m.Op != Merge || m.Shards != 4 || !m.IsLeaf() {
		t.Fatalf("left = %s over %d shards (leaf %v), want a Merge leaf over 4", m.Op, m.Shards, m.IsLeaf())
	}
	if m.Alias != "a" || m.Table != "a" || len(m.Preds) != 1 {
		t.Fatalf("Merge node lost scan identity: %+v", m)
	}
	// IndexScan leaves are not sharded.
	if out.Right.Op != IndexScan || out.Right.Shards != 0 {
		t.Fatalf("index scan should be untouched, got %s", out.Right.Op)
	}
	// Idempotent: a second run finds only Merge nodes and does not fire.
	if _, again := ShardScans(4).Rewrite(context.Background(), out, &PassContext{}); again {
		t.Fatal("shard-scans not idempotent")
	}
}

func TestShardScansBelowTwoIsNoop(t *testing.T) {
	for _, n := range []int{0, 1, -3} {
		root := samplePlan()
		out, fired := ShardScans(n).Rewrite(context.Background(), root, &PassContext{})
		if fired || out != root {
			t.Fatalf("ShardScans(%d) should be a no-op", n)
		}
	}
}

func TestShardedPlanKeysDistinct(t *testing.T) {
	base := samplePlan()
	mk := func(n int) *Node {
		out, _ := ShardScans(n).Rewrite(context.Background(), base, &PassContext{})
		return out
	}
	two, four := mk(2), mk(4)
	if base.Fingerprint() == two.Fingerprint() {
		t.Fatal("sharded and unsharded plans share a fingerprint")
	}
	if two.Fingerprint() == four.Fingerprint() {
		t.Fatal("different shard counts share a fingerprint")
	}
	if base.StructureKey() == two.StructureKey() {
		t.Fatal("sharded and unsharded plans share a structure key")
	}
	if two.StructureKey() == four.StructureKey() {
		t.Fatal("different shard counts share a structure key")
	}
}

func TestShardedWalkAndClone(t *testing.T) {
	out, _ := ShardScans(2).Rewrite(context.Background(), samplePlan(), &PassContext{})
	full, logical := 0, 0
	out.Walk(func(*Node) { full++ })
	out.WalkLogical(func(*Node) { logical++ })
	// Join + Merge + IndexScan: one node per logical operator.
	if full != 3 || logical != 3 {
		t.Fatalf("walk counts = %d full / %d logical, want 3 / 3", full, logical)
	}

	c := out.Clone()
	c.Left.Preds[0].Val = data.IntVal(999)
	c.Left.Shards = 7
	if out.Left.Preds[0].Val.I == 999 || out.Left.Shards == 7 {
		t.Fatal("Clone shares Merge node state")
	}
	if c.Fingerprint() == out.Fingerprint() {
		t.Fatal("modified Merge clone should fingerprint differently")
	}

	// CloneNodes copies every node and shares only the Preds/Cond slices:
	// replacing one on the copy leaves out alone.
	n := out.CloneNodes()
	if n.Fingerprint() != out.Fingerprint() {
		t.Fatal("CloneNodes changed the plan")
	}
	n.Left.Shards = 7
	n.Left.TrueCard, n.Left.Preds = 5, nil
	if out.Left.Shards == 7 || out.Left.TrueCard == 5 || len(out.Left.Preds) == 0 {
		t.Fatal("CloneNodes shares nodes")
	}
	if &n.Cond[0] != &out.Cond[0] {
		t.Fatal("CloneNodes copied a condition slice it should share")
	}
}

// TestShardScansDividesEstimates: sharding divides the scan's work, not
// its estimates — the Merge leaf carries the whole scan's EstCard and
// EstCost.
func TestShardScansDividesEstimates(t *testing.T) {
	scan := NewScan(SeqScan, "a", "a", []query.Pred{{Alias: "a", Column: "v", Op: query.Gt, Val: data.IntVal(3)}})
	scan.EstCard, scan.EstCost = 100, 40
	out, _ := ShardScans(4).Rewrite(context.Background(), scan, &PassContext{})
	if out.Op != Merge || out.EstCard != 100 || out.EstCost != 40 {
		t.Fatalf("%s EstCard/EstCost = %v/%v, want the scan's 100/40", out.Op, out.EstCard, out.EstCost)
	}
}

func TestShardedExplainRendering(t *testing.T) {
	out, _ := ShardScans(2).Rewrite(context.Background(), samplePlan(), &PassContext{})
	s := out.String()
	if !strings.Contains(s, "Merge a [2 shards]") {
		t.Errorf("sharded rendering missing the Merge leaf:\n%s", s)
	}
	if lines := strings.Count(s, "\n"); lines != 3 {
		t.Errorf("sharded rendering has %d lines, want one per node (3):\n%s", lines, s)
	}
}
