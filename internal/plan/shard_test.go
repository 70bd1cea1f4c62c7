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
	if root.Left.Op != SeqScan || len(root.Left.Shards) != 0 {
		t.Fatal("shard-scans mutated its input")
	}
	m := out.Left
	if m.Op != Merge || len(m.Shards) != 4 {
		t.Fatalf("left = %s with %d shards, want Merge with 4", m.Op, len(m.Shards))
	}
	if m.Alias != "a" || m.Table != "a" || len(m.Preds) != 1 {
		t.Fatalf("Merge node lost scan identity: %+v", m)
	}
	for i, s := range m.Shards {
		if s.Op != Exchange || s.Shard != i || s.ShardOf != 4 {
			t.Fatalf("shard %d = %s %d/%d", i, s.Op, s.Shard, s.ShardOf)
		}
		if s.Left == nil || s.Left.Op != SeqScan || !s.Left.IsLeaf() {
			t.Fatalf("shard %d does not wrap a SeqScan leaf", i)
		}
	}
	// IndexScan leaves are not sharded.
	if out.Right.Op != IndexScan || len(out.Right.Shards) != 0 {
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
	// Join + Merge(2 Exchange + 2 scan clones) + IndexScan = 7 full nodes;
	// the logical walk stops at the Merge: Join + Merge + IndexScan = 3.
	if full != 7 || logical != 3 {
		t.Fatalf("walk counts = %d full / %d logical, want 7 / 3", full, logical)
	}

	c := out.Clone()
	c.Left.Shards[1].Left.Preds[0].Val = data.IntVal(999)
	c.Left.Shards[0].Shard = 7
	if out.Left.Shards[1].Left.Preds[0].Val.I == 999 || out.Left.Shards[0].Shard == 7 {
		t.Fatal("Clone shares shard subplan state")
	}
	if c.Fingerprint() == out.Fingerprint() {
		t.Fatal("modified shard clone should fingerprint differently")
	}

	// CloneNodes copies every node, shard lists included, and shares only
	// the Preds/Cond slices: replacing one on the copy leaves out alone.
	n := out.CloneNodes()
	if n.Fingerprint() != out.Fingerprint() {
		t.Fatal("CloneNodes changed the plan")
	}
	n.Left.Shards[0].Shard, n.Left.Shards[1] = 7, nil
	n.Left.TrueCard, n.Left.Preds = 5, nil
	if out.Left.Shards[0].Shard == 7 || out.Left.Shards[1] == nil || out.Left.TrueCard == 5 || len(out.Left.Preds) == 0 {
		t.Fatal("CloneNodes shares nodes or shard lists")
	}
	if &n.Cond[0] != &out.Cond[0] {
		t.Fatal("CloneNodes copied a condition slice it should share")
	}
}

func TestShardScansDividesEstimates(t *testing.T) {
	scan := NewScan(SeqScan, "a", "a", []query.Pred{{Alias: "a", Column: "v", Op: query.Gt, Val: data.IntVal(3)}})
	scan.EstCard = 100
	out, _ := ShardScans(4).Rewrite(context.Background(), scan, &PassContext{})
	if out.EstCard != 100 {
		t.Fatalf("Merge EstCard = %v, want the scan's 100", out.EstCard)
	}
	for i, s := range out.Shards {
		if s.EstCard != 25 {
			t.Fatalf("shard %d EstCard = %v, want 25", i, s.EstCard)
		}
	}
}

func TestShardedExplainRendering(t *testing.T) {
	out, _ := ShardScans(2).Rewrite(context.Background(), samplePlan(), &PassContext{})
	s := out.String()
	for _, frag := range []string{"Merge a [2 shards]", "Exchange"} {
		if !strings.Contains(s, frag) {
			t.Errorf("sharded rendering missing %q:\n%s", frag, s)
		}
	}
	dot := ToDOT(out)
	for _, frag := range []string{"2 shards", "shard 0/2", "shard 1/2"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("sharded DOT missing %q:\n%s", frag, dot)
		}
	}
}
