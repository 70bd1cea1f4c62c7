// Package cost implements the traditional, rule-based cost model — the
// PostgreSQL-style baseline every learned cost model in the workbench is
// compared against.
//
// Its constants deliberately approximate (not duplicate) the executor's
// true charging: a real optimizer's cost model has the right shape but
// imperfect magnitudes, and that gap is exactly what learned cost models
// exploit in experiment E3.
package cost

import (
	"math"

	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// Cost constants. Compare exec's charging: shapes match, but magnitudes
// are deliberately in "optimizer cost units" rather than work units —
// roughly 4x scale with skewed per-operator ratios — because a real cost
// model's units are arbitrary (PostgreSQL costs are not milliseconds).
// Experiment E3's calibrated/learned models recover the true scale.
const (
	SeqTuple    = 4.0
	PredTuple   = 1.0
	HashBuild   = 7.0
	HashProbe   = 4.0
	IndexSeek   = 25.0
	OutputTuple = 1.5
	NLPair      = 0.45
	SortUnit    = 5.5
	Startup     = 40.0
)

// Model is the traditional cost model, parameterized by table statistics.
type Model struct {
	Stats *stats.CatalogStats
}

// New returns a cost model reading table statistics from cs.
func New(cs *stats.CatalogStats) *Model {
	return &Model{Stats: cs}
}

// ScanCost estimates the cost of a scan producing outRows.
//
// For SeqScan, inRows is the table row count. For IndexScan, inRows is the
// number of heap tuples fetched by the equality lookup (rows/NDV of the
// indexed column).
func (m *Model) ScanCost(op plan.Op, inRows, outRows float64, npreds int) float64 {
	switch op {
	case plan.SeqScan:
		return Startup + inRows*(SeqTuple+PredTuple*float64(npreds)) + outRows*OutputTuple
	case plan.IndexScan:
		return Startup + IndexSeek + inRows*(SeqTuple+PredTuple*float64(npreds)) + outRows*OutputTuple
	default:
		return math.Inf(1)
	}
}

// Input is one join input as JoinCost reads it: its estimated rows and
// the merge join's sort term for them, n·log2(n). A planner that costs
// one input against many partners computes the term once (In).
type Input struct {
	Rows, NLogN float64
}

// In returns the join input of rows rows.
func In(rows float64) Input { return Input{Rows: rows, NLogN: nlogn(rows)} }

// JoinCost estimates the cost of joining left (outer) and right (inner)
// inputs producing outRows, excluding the children's own costs.
func (m *Model) JoinCost(op plan.Op, left, right Input, outRows float64) float64 {
	switch op {
	case plan.HashJoin:
		return Startup + right.Rows*HashBuild + left.Rows*HashProbe + outRows*OutputTuple
	case plan.MergeJoin:
		return Startup + SortUnit*(left.NLogN+right.NLogN) + outRows*OutputTuple
	case plan.NestedLoopJoin:
		return Startup + left.Rows*right.Rows*NLPair + outRows*OutputTuple
	default:
		return math.Inf(1)
	}
}

// TableRows returns the statistics row count for a table (0 if unknown).
func (m *Model) TableRows(table string) float64 {
	if ts, ok := m.Stats.Tables[table]; ok {
		return ts.Rows
	}
	return 0
}

// IndexFetchRows estimates tuples fetched by an equality index lookup on
// table.col: rows divided by the column's distinct count.
func (m *Model) IndexFetchRows(table, col string) float64 {
	ts, ok := m.Stats.Tables[table]
	if !ok {
		return 0
	}
	cs, ok := ts.Cols[col]
	if !ok || cs.Distinct < 1 {
		return ts.Rows
	}
	return ts.Rows / cs.Distinct
}

// PlanCost computes the total cost of an annotated plan tree whose EstCard
// fields are already filled, writing per-node EstCost and returning the
// root total. Scan input rows are derived from statistics.
func (m *Model) PlanCost(n *plan.Node) float64 {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		inRows := m.TableRows(n.Table)
		npreds := len(n.Preds)
		if n.Op == plan.IndexScan {
			for _, p := range n.Preds {
				// The first equality predicate drives the index lookup.
				if p.Op == query.Eq {
					inRows = m.IndexFetchRows(n.Table, p.Column)
					npreds--
					break
				}
			}
		}
		n.EstCost = m.ScanCost(n.Op, inRows, n.EstCard, npreds)
		return n.EstCost
	}
	lc := m.PlanCost(n.Left)
	rc := m.PlanCost(n.Right)
	own := m.JoinCost(n.Op, In(n.Left.EstCard), In(n.Right.EstCard), n.EstCard)
	n.EstCost = lc + rc + own
	return n.EstCost
}

func nlogn(n float64) float64 {
	if n < 2 {
		return n
	}
	return n * math.Log2(n)
}
