package cost

import (
	"math"
	"testing"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/stats"
)

func testModel() *Model {
	cat := data.NewCatalog()
	id := &data.Column{Name: "id", Kind: data.Int}
	v := &data.Column{Name: "v", Kind: data.Int}
	for i := 0; i < 1000; i++ {
		id.AppendInt(int64(i))
		v.AppendInt(int64(i % 10))
	}
	t := data.NewTable("t", id, v)
	cat.Add(t)
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 1})
	return New(cs)
}

func TestScanCostMonotoneInRows(t *testing.T) {
	m := testModel()
	small := m.ScanCost(plan.SeqScan, 100, 10, 1)
	big := m.ScanCost(plan.SeqScan, 10000, 10, 1)
	if big <= small {
		t.Fatalf("seq scan cost not monotone: %v vs %v", small, big)
	}
	if math.IsInf(m.ScanCost(plan.HashJoin, 1, 1, 0), 1) == false {
		t.Fatal("non-scan op should cost +inf")
	}
}

func TestIndexBeatsSeqForSelectiveLookup(t *testing.T) {
	m := testModel()
	rows := m.TableRows("t")
	idxRows := m.IndexFetchRows("t", "id") // unique key → ~1 row
	seq := m.ScanCost(plan.SeqScan, rows, 1, 1)
	idx := m.ScanCost(plan.IndexScan, idxRows, 1, 0)
	if idx >= seq {
		t.Fatalf("index %v should beat seq %v for unique lookup", idx, seq)
	}
}

func TestJoinCostShapes(t *testing.T) {
	m := testModel()
	// NL grows quadratically: doubling both inputs ~4x the cost.
	nl1 := m.JoinCost(plan.NestedLoopJoin, In(100), In(100), 10)
	nl2 := m.JoinCost(plan.NestedLoopJoin, In(200), In(200), 10)
	if nl2 < nl1*3 {
		t.Fatalf("NL cost not quadratic-ish: %v → %v", nl1, nl2)
	}
	// Hash join is linear-ish.
	h1 := m.JoinCost(plan.HashJoin, In(100), In(100), 10)
	h2 := m.JoinCost(plan.HashJoin, In(200), In(200), 10)
	if h2 > h1*3 {
		t.Fatalf("hash cost superlinear: %v → %v", h1, h2)
	}
	// For large equal inputs hash beats NL.
	if m.JoinCost(plan.HashJoin, In(10000), In(10000), 100) >= m.JoinCost(plan.NestedLoopJoin, In(10000), In(10000), 100) {
		t.Fatal("hash should beat NL at scale")
	}
	// For tiny inputs NL's lack of build cost can win.
	if m.JoinCost(plan.NestedLoopJoin, In(2), In(2), 1) >= m.JoinCost(plan.HashJoin, In(2), In(2), 1) {
		t.Fatal("NL should win on tiny inputs")
	}
	if !math.IsInf(m.JoinCost(plan.SeqScan, In(1), In(1), 1), 1) {
		t.Fatal("non-join op should cost +inf")
	}
}

func TestPlanCostAnnotatesNodes(t *testing.T) {
	m := testModel()
	j := query.Join{LeftAlias: "t", LeftCol: "id", RightAlias: "t2", RightCol: "id"}
	left := plan.NewScan(plan.SeqScan, "t", "t", nil)
	left.EstCard = 1000
	right := plan.NewScan(plan.SeqScan, "t2", "t", nil)
	right.EstCard = 1000
	root := plan.NewJoin(plan.HashJoin, left, right, []query.Join{j})
	root.EstCard = 1000
	total := m.PlanCost(root)
	if total <= 0 {
		t.Fatalf("total = %v", total)
	}
	if root.EstCost != total {
		t.Fatal("root EstCost not set")
	}
	if left.EstCost <= 0 || right.EstCost <= 0 {
		t.Fatal("child EstCost not set")
	}
	if root.EstCost <= left.EstCost+right.EstCost {
		t.Fatal("join adds no cost?")
	}
}

func TestPlanCostUsesIndexFetchRows(t *testing.T) {
	m := testModel()
	eq := query.Pred{Alias: "t", Column: "id", Op: query.Eq, Val: data.IntVal(5)}
	idx := plan.NewScan(plan.IndexScan, "t", "t", []query.Pred{eq})
	idx.EstCard = 1
	seq := plan.NewScan(plan.SeqScan, "t", "t", []query.Pred{eq})
	seq.EstCard = 1
	if m.PlanCost(idx) >= m.PlanCost(seq) {
		t.Fatal("index plan should cost less than seq plan for unique eq lookup")
	}
}

func TestTableRowsUnknown(t *testing.T) {
	m := testModel()
	if m.TableRows("nope") != 0 {
		t.Fatal("unknown table should have 0 rows")
	}
	if m.IndexFetchRows("nope", "x") != 0 {
		t.Fatal("unknown table index fetch should be 0")
	}
	if m.IndexFetchRows("t", "nope") != m.TableRows("t") {
		t.Fatal("unknown column should fall back to full rows")
	}
}
