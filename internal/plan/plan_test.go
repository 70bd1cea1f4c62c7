package plan

import (
	"fmt"
	"strings"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

func samplePlan() *Node {
	j := query.Join{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"}
	p := query.Pred{Alias: "a", Column: "v", Op: query.Gt, Val: data.IntVal(3)}
	left := NewScan(SeqScan, "a", "a", []query.Pred{p})
	right := NewScan(IndexScan, "b", "b", nil)
	return NewJoin(HashJoin, left, right, []query.Join{j})
}

func TestAliasesAndWalk(t *testing.T) {
	p := samplePlan()
	al := p.Aliases()
	if len(al) != 2 || al[0] != "a" || al[1] != "b" {
		t.Fatalf("Aliases = %v", al)
	}
	if p.NumJoins() != 1 {
		t.Fatalf("NumJoins = %d", p.NumJoins())
	}
	if len(p.Nodes()) != 3 {
		t.Fatalf("Nodes = %d", len(p.Nodes()))
	}
	if !p.Left.IsLeaf() || p.IsLeaf() {
		t.Fatal("leaf detection broken")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := samplePlan()
	c := p.Clone()
	c.Left.Preds[0].Column = "zzz"
	c.Op = MergeJoin
	if p.Left.Preds[0].Column != "v" || p.Op != HashJoin {
		t.Fatal("Clone shares state")
	}
	if c.Fingerprint() == p.Fingerprint() {
		t.Fatal("modified clone should differ")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	p1 := samplePlan()
	p2 := samplePlan()
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatal("identical plans should share a fingerprint")
	}
	// Operator change.
	p2.Op = MergeJoin
	if p1.Fingerprint() == p2.Fingerprint() {
		t.Fatal("join operator not in fingerprint")
	}
	// Operand order matters (NL cost asymmetric).
	p3 := samplePlan()
	p3.Left, p3.Right = p3.Right, p3.Left
	if p1.Fingerprint() == p3.Fingerprint() {
		t.Fatal("operand order not in fingerprint")
	}
	// Predicate literal change.
	p4 := samplePlan()
	p4.Left.Preds[0].Val = data.IntVal(4)
	if p1.Fingerprint() == p4.Fingerprint() {
		t.Fatal("predicate literal not in fingerprint")
	}
}

func TestStructureKeyIgnoresLiterals(t *testing.T) {
	p1 := samplePlan()
	p2 := samplePlan()
	p2.Left.Preds[0].Val = data.IntVal(99)
	if p1.StructureKey() != p2.StructureKey() {
		t.Fatal("StructureKey should ignore literals")
	}
	p3 := samplePlan()
	p3.Op = NestedLoopJoin
	if p1.StructureKey() == p3.StructureKey() {
		t.Fatal("StructureKey should see operators")
	}
}

func TestStringRendering(t *testing.T) {
	p := samplePlan()
	p.EstCard = 10
	s := p.String()
	for _, frag := range []string{"HashJoin", "SeqScan a", "IndexScan b", "a.v > 3"} {
		if !strings.Contains(s, frag) {
			t.Errorf("plan rendering missing %q:\n%s", frag, s)
		}
	}
}

func TestHintSets(t *testing.T) {
	var h HintSet
	if !h.Valid() || h.String() != "default" {
		t.Fatal("zero hint set should be valid default")
	}
	h.NoHashJoin = true
	if h.AllowsJoin(HashJoin) || !h.AllowsJoin(MergeJoin) {
		t.Fatal("AllowsJoin wrong")
	}
	if !strings.Contains(h.String(), "hashjoin") {
		t.Fatalf("String = %s", h.String())
	}
	all := HintSet{NoHashJoin: true, NoMergeJoin: true, NoNestedLoop: true}
	if all.Valid() {
		t.Fatal("no joins left should be invalid")
	}
	scans := HintSet{NoIndexScan: true}
	if !scans.Valid() || !scans.AllowsScan(SeqScan) || scans.AllowsScan(IndexScan) {
		t.Fatal("no-indexscan must stay valid: a sequential scan is always allowed")
	}
	for _, hs := range BaoHintSets() {
		if !hs.Valid() {
			t.Fatalf("Bao hint set %s invalid", hs)
		}
	}
	if len(BaoHintSets()) < 5 {
		t.Fatal("Bao arm set too small")
	}
}

func TestSubqueryProjection(t *testing.T) {
	q := &query.Query{
		Refs: []query.TableRef{{Alias: "a", Table: "a"}, {Alias: "b", Table: "b"}},
		Joins: []query.Join{
			{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"},
		},
		Preds: []query.Pred{{Alias: "a", Column: "v", Op: query.Gt, Val: data.IntVal(3)}},
	}
	p := samplePlan()
	sub := p.Left.Subquery(q)
	if len(sub.Refs) != 1 || sub.Refs[0].Alias != "a" || len(sub.Preds) != 1 {
		t.Fatalf("scan subquery = %+v", sub)
	}
	whole := p.Subquery(q)
	if len(whole.Joins) != 1 {
		t.Fatalf("root subquery lost join")
	}
}

// The pairs below collide under the pre-canonical fingerprint format
// (";"-joined predicate strings, ","-joined join conditions, raw alias
// bytes) and must stay distinct under the KeyBuilder encoding — the
// plan-side half of the delimiter-injection regression suite.

func TestFingerprintPredDelimiterInjection(t *testing.T) {
	// Old leaf format: Op "(" alias {";" pred.String()} ")". A column
	// name containing " > 1;a.w" spliced one predicate into two.
	p1 := NewScan(SeqScan, "a", "t", []query.Pred{
		{Alias: "a", Column: "v > 1;a.w", Op: query.Gt, Val: data.IntVal(2)},
	})
	p2 := NewScan(SeqScan, "a", "t", []query.Pred{
		{Alias: "a", Column: "v", Op: query.Gt, Val: data.IntVal(1)},
		{Alias: "a", Column: "w", Op: query.Gt, Val: data.IntVal(2)},
	})
	if p1.Fingerprint() == p2.Fingerprint() {
		t.Fatalf("pred delimiter injection collides: %q", p1.Fingerprint())
	}
}

func TestFingerprintCondDelimiterInjection(t *testing.T) {
	l, r := NewScan(SeqScan, "a", "t", nil), NewScan(SeqScan, "b", "u", nil)
	p1 := NewJoin(HashJoin, l.Clone(), r.Clone(), []query.Join{
		{LeftAlias: "a", LeftCol: "x = b.y,a.z", RightAlias: "b", RightCol: "w"},
	})
	p2 := NewJoin(HashJoin, l.Clone(), r.Clone(), []query.Join{
		{LeftAlias: "a", LeftCol: "x", RightAlias: "b", RightCol: "y"},
		{LeftAlias: "a", LeftCol: "z", RightAlias: "b", RightCol: "w"},
	})
	if p1.Fingerprint() == p2.Fingerprint() {
		t.Fatalf("join condition delimiter injection collides: %q", p1.Fingerprint())
	}
}

func TestFingerprintNumericCanonicalization(t *testing.T) {
	mk := func(v data.Value) *Node {
		return NewScan(SeqScan, "a", "t", []query.Pred{{Alias: "a", Column: "v", Op: query.Gt, Val: v}})
	}
	if mk(data.IntVal(1000000)).Fingerprint() != mk(data.FloatVal(1e6)).Fingerprint() {
		t.Fatal("semantically identical literals fingerprint differently")
	}
	if mk(data.IntVal(1)).Fingerprint() == mk(data.IntVal(2)).Fingerprint() {
		t.Fatal("distinct literals collide")
	}
}

func TestFingerprintIncludesTable(t *testing.T) {
	// Same alias bound to different base tables must not collide: a
	// serving-layer plan cache would otherwise hand table t's plan to a
	// query over table u.
	p1 := NewScan(SeqScan, "a", "t", nil)
	p2 := NewScan(SeqScan, "a", "u", nil)
	if p1.Fingerprint() == p2.Fingerprint() {
		t.Fatal("fingerprint ignores the base table")
	}
}

func TestStructureKeyDelimiterInjection(t *testing.T) {
	// Old structure key wrote raw alias bytes: alias "a),SeqScan(b"
	// spliced a fake sibling into the tree rendering.
	deep := NewJoin(HashJoin, NewScan(SeqScan, "a),SeqScan(b", "t", nil), NewScan(SeqScan, "c", "u", nil), nil)
	if deep.StructureKey() == NewJoin(HashJoin,
		NewJoin(HashJoin, NewScan(SeqScan, "a", "t", nil), NewScan(SeqScan, "b", "t", nil), nil),
		NewScan(SeqScan, "c", "u", nil), nil).StructureKey() {
		t.Fatal("structure key delimiter injection collides")
	}
}

// chainPlan is a left-deep hash-join chain over n tables t0..t(n-1) and
// the join graph of the query it computes.
func chainPlan(n int) (*Node, *query.JoinGraph) {
	q := &query.Query{}
	var p *Node
	for i := 0; i < n; i++ {
		a := fmt.Sprintf("t%d", i)
		q.Refs = append(q.Refs, query.TableRef{Alias: a, Table: a})
		scan := NewScan(SeqScan, a, a, nil)
		if p == nil {
			p = scan
			continue
		}
		j := query.Join{LeftAlias: fmt.Sprintf("t%d", i-1), LeftCol: "id", RightAlias: a, RightCol: "id"}
		q.Joins = append(q.Joins, j)
		p = NewJoin(HashJoin, p, scan, []query.Join{j})
	}
	return p, query.NewJoinGraph(q)
}

// TestWalkLogicalMasks checks the pre-order and every node's mask against
// Walk and Aliases, on both sides of the 16-table stack buffer.
func TestWalkLogicalMasks(t *testing.T) {
	for _, n := range []int{1, 2, 16, 17, 40} {
		p, g := chainPlan(n)
		var want []*Node
		p.Walk(func(m *Node) { want = append(want, m) })
		i := 0
		p.WalkLogicalMasks(g, func(m *Node, mask uint64) {
			if i >= len(want) || m != want[i] {
				t.Fatalf("%d tables: node %d out of pre-order", n, i)
			}
			var bits uint64
			for _, a := range m.Aliases() {
				bits |= g.Bit(a)
			}
			if mask != bits {
				t.Fatalf("%d tables: node %d mask %b, want %b", n, i, mask, bits)
			}
			i++
		})
		if i != len(want) {
			t.Fatalf("%d tables: visited %d nodes, want %d", n, i, len(want))
		}
	}
}

// TestWalkLogicalMasksAllocations: a plan of up to 16 tables walks
// without allocating.
func TestWalkLogicalMasksAllocations(t *testing.T) {
	p, g := chainPlan(16)
	var sum uint64
	fn := func(_ *Node, mask uint64) { sum += mask }
	if a := testing.AllocsPerRun(100, func() { p.WalkLogicalMasks(g, fn) }); a != 0 {
		t.Fatalf("WalkLogicalMasks over 16 tables: %.1f allocations, want 0", a)
	}
}
