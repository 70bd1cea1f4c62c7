// Operator-pipeline layer: the executor is a tree of physical operators
// behind a common Volcano/batch interface. Fixed-size batches of row-id
// tuples stream between operators instead of monolithic materialized
// relations; only the hash-join build side, the buffered probe prefix
// (needed to pick the smaller build side exactly like the reference
// evaluator), the cross-product inputs and the sort-free aggregates
// materialize anything.
//
// Every operator reports per-operator telemetry — rows in/out, charged
// work units, batches, wall-clock — the fine-grained execution evidence
// that sub-plan-trained optimizers (Neo, LEON) and learned-optimizer
// diagnosis need and that the old recursive evaluator could not produce.
//
// Determinism contract. The pipeline must measure exactly what the
// reference evaluator measured: result Count/Value, per-node TrueCard and
// charged WorkUnits are byte-identical at every worker count. Work-unit
// charges are recorded per operator in the reference evaluator's
// canonical intra-node order and folded into CostStats.WorkUnits by
// replaying them in the reference's global (post-order left-to-right)
// accumulation order, so even float64 rounding matches.
package exec

import (
	"context"
	"time"

	"lqo/internal/plan"
)

// DefaultBatchSize is the number of row-id tuples per streamed batch when
// Executor.BatchSize is unset. Large enough to amortize per-batch
// overhead, small enough that a deep join pipeline holds only a few
// thousand in-flight tuples per operator.
const DefaultBatchSize = 1024

// Batch is one fixed-capacity unit of rows streaming between operators:
// tuples of row ids, one per alias of the producing operator's schema.
// The Tuples slice (the outer array) is owned by the producer and may be
// reused — or returned to the producer's BatchPool and recycled by an
// unrelated operator — after the consumer's next pull; a consumer that
// needs tuples across pulls must copy the tuple pointers out first. The
// per-tuple []int32 values are immutable and may be retained until the
// producing operator's Close (they carve from the producer's tuple arena,
// whose slabs are recycled only at Close — and operators close top-down,
// parents before their children release).
type Batch struct {
	Tuples [][]int32
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.Tuples) }

// OpTelemetry is one operator's execution evidence: cardinalities in and
// out, the work units charged to the operator (the deterministic latency
// proxy), and wall-clock time spent inside the operator (inclusive of its
// children's pulls).
type OpTelemetry struct {
	Op   string     // operator display name
	Node *plan.Node // plan node this operator executes (nil for the aggregate sink)

	RowsIn  int64         // tuples pulled from inputs (scans: base tuples read)
	RowsOut int64         // tuples emitted
	Batches int64         // batches emitted
	Wall    time.Duration // inclusive wall-clock across Open and Next; RunAnalyze only

	// Zone-map pruning evidence for vectorized sequential scans: how many
	// fixed-size blocks the table spans and how many were proven
	// non-matching and never scanned. Both zero for non-scan operators,
	// predicate-free scans, and NoVec runs. Skipped blocks still charge
	// the canonical per-row work (pruning never changes WorkUnits); these
	// counters are the only place pruning is visible.
	BlocksTotal   int64
	BlocksSkipped int64

	tuplesRead   int64
	tuplesJoined int64
	indexLookups int64
	// charges holds the operator's work-unit charges in the reference
	// evaluator's canonical intra-node order (e.g. scans: startup, read,
	// output). Replaying all operators' charges in plan-eval order
	// reproduces CostStats.WorkUnits bit-for-bit.
	charges []float64
}

// WorkUnits folds the operator's charges in canonical order — the work
// attributable to this operator alone.
func (t *OpTelemetry) WorkUnits() float64 {
	w := 0.0
	for _, c := range t.charges {
		w += c
	}
	return w
}

// Charges returns a copy of the operator's work-unit charges in canonical
// order.
func (t *OpTelemetry) Charges() []float64 {
	return append([]float64(nil), t.charges...)
}

// timed accumulates wall-clock into the telemetry; use as
// `defer t.timed(time.Now())`.
func (t *OpTelemetry) timed(t0 time.Time) { t.Wall += time.Since(t0) }

// timedOp wraps every operator of a RunAnalyze run to fill in Wall; a
// plain run builds none and never reads the clock.
type timedOp struct{ Operator }

func timed(op Operator, analyze bool) Operator {
	if analyze {
		return timedOp{op}
	}
	return op
}

func (t timedOp) Open(ctx context.Context) error {
	defer t.Telemetry().timed(time.Now())
	return t.Operator.Open(ctx)
}

func (t timedOp) Next() (*Batch, error) {
	defer t.Telemetry().timed(time.Now())
	return t.Operator.Next()
}

// Operator is the common interface of every physical operator in the
// pipeline. The protocol is Open → Next until it returns a nil batch
// (exhaustion) or an error → Close. Cancellation is cooperative: Next
// checks the context passed to Open at every batch boundary and every
// cancelCheckRows rows inside tight loops.
type Operator interface {
	// Open prepares the operator (resolving tables, columns and join keys)
	// and recursively opens its children. The context governs the whole
	// execution: every subsequent Next observes it.
	Open(ctx context.Context) error
	// Next returns the next batch, or (nil, nil) on exhaustion. The
	// returned batch's outer slice is only valid until the following Next.
	Next() (*Batch, error)
	// Close releases operator state. It is idempotent and closes children.
	Close() error
	// Telemetry returns the operator's execution evidence. Counters are
	// final once Next has returned (nil, nil).
	Telemetry() *OpTelemetry
	// Schema returns the alias layout of emitted tuples.
	Schema() []string
}

// walkOps visits the operator tree post-order, inputs left to right (the
// reference evaluator's charge order), seeing through timing wrappers.
func walkOps(op Operator, fn func(Operator)) {
	switch o := op.(type) {
	case timedOp:
		walkOps(o.Operator, fn)
		return
	case *hashJoinOp:
		walkOps(o.left, fn)
		walkOps(o.right, fn)
	case *crossJoinOp:
		walkOps(o.left, fn)
		walkOps(o.right, fn)
	case *aggSink:
		walkOps(o.child, fn)
	case *concurrentOp:
		walkOps(o.child, fn)
	case *mergeOp:
		for _, x := range o.exs {
			fn(x)
		}
	}
	fn(op)
}

// concatSchema appends a join's output alias layout, left then right.
func concatSchema(dst, ls, rs []string) []string {
	return append(append(dst, ls...), rs...)
}
