// Operator-pipeline layer: the executor is a tree of physical operators
// behind a common Volcano/batch interface. Fixed-size batches of row ids,
// stored by column, stream between operators instead of monolithic
// materialized relations; only the hash-join build side, the buffered
// probe prefix (needed to pick the smaller build side exactly like the
// reference evaluator), the cross-product inputs and the sort-free
// aggregates materialize anything. Each operator emits only the columns
// its consumer reads (see buildOperator), so a COUNT(*) root join counts
// its matches and never writes an output row.
//
// Every operator reports per-operator telemetry — rows in/out, charged
// work units, batches, wall-clock — the fine-grained execution evidence
// that sub-plan-trained optimizers (Neo, LEON) and learned-optimizer
// diagnosis need and that the old recursive evaluator could not produce.
//
// Determinism contract. The pipeline must measure exactly what the
// reference evaluator measured: result Count/Value, the Cards record and
// charged WorkUnits are byte-identical at every batch size. Work-unit
// charges are recorded per operator in the reference evaluator's
// canonical intra-node order and folded into CostStats.WorkUnits by
// replaying them in the reference's global (post-order left-to-right)
// accumulation order, so even float64 rounding matches.
package exec

import (
	"context"
	"slices"
	"time"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// DefaultBatchSize is the number of rows per streamed batch when
// Executor.BatchSize is unset. Large enough to amortize per-batch
// overhead, small enough that a deep join pipeline holds only a few
// thousand in-flight rows per operator.
const DefaultBatchSize = 1024

// Batch is one unit of rows streaming between operators, stored by
// column: N rows and, per alias of the producer's Schema, a row-id vector
// of length N (Cols[c][i] is row i's id in the table behind Schema()[c]).
// A producer whose consumer reads no column emits N alone. The vectors are
// owned by the producer and borrowed by the consumer until its next pull,
// after which the producer may overwrite them or return them to its
// BatchPool; a consumer that needs rows across pulls copies the ids out.
type Batch struct {
	N    int
	Cols [][]int32
}

// alloc makes the empty b own k empty pooled vectors.
func (b *Batch) alloc(p *BatchPool, k int) {
	for range k {
		b.Cols = append(b.Cols, p.GetSel(0))
	}
}

// free returns b's vectors to p and empties b; a no-op on an empty batch.
func (b *Batch) free(p *BatchPool) {
	for _, c := range b.Cols {
		p.PutSel(c)
	}
	b.forget()
}

// forget empties b without returning anything: for views and batches
// whose vectors went back already. The outer slice keeps its capacity.
func (b *Batch) forget() {
	clear(b.Cols)
	b.N, b.Cols = 0, b.Cols[:0]
}

// truncate drops b's rows, keeping its vectors.
func (b *Batch) truncate() {
	for c := range b.Cols {
		b.Cols[c] = b.Cols[c][:0]
	}
	b.N = 0
}

// appendRows copies rows [lo, hi) of src, which has b's layout, onto b.
func (b *Batch) appendRows(src *Batch, lo, hi int) {
	for c := range b.Cols {
		b.Cols[c] = append(b.Cols[c], src.Cols[c][lo:hi]...)
	}
	b.N += hi - lo
}

// emit points out at the next window of at most bs rows of pending,
// starting at *idx and viewing pending's first ncols columns, and counts
// it in tel.
func emit(pending *Batch, idx *int, out *Batch, ncols int, tel *OpTelemetry, bs int) *Batch {
	lo := *idx
	n := min(pending.N-lo, bs)
	out.N, out.Cols = n, out.Cols[:0]
	for _, c := range pending.Cols[:ncols] {
		out.Cols = append(out.Cols, c[lo:lo+n])
	}
	*idx += n
	tel.RowsOut += int64(n)
	tel.Batches++
	return out
}

// OpTelemetry is one operator's execution evidence: cardinalities in and
// out, the work units charged to the operator (the deterministic latency
// proxy), and wall-clock time spent inside the operator (inclusive of its
// children's pulls).
type OpTelemetry struct {
	Op   string     // operator display name
	Node *plan.Node // plan node this operator executes (nil for the aggregate sink)

	RowsIn  int64         // rows pulled from inputs (scans: base rows read)
	RowsOut int64         // rows emitted
	Batches int64         // batches emitted
	Wall    time.Duration // inclusive wall-clock across Open and Next; RunAnalyze only

	// Zone-map pruning evidence for vectorized sequential scans: how many
	// fixed-size blocks the table spans and how many were proven
	// non-matching and never scanned. Both zero for non-scan operators
	// and predicate-free scans. Skipped blocks still charge
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
	// returned batch and its vectors are only valid until the following
	// Next.
	Next() (*Batch, error)
	// Close releases operator state. It is idempotent and closes children.
	Close() error
	// Telemetry returns the operator's execution evidence. Counters are
	// final once Next has returned (nil, nil).
	Telemetry() *OpTelemetry
	// Schema returns the aliases of the emitted columns, in Cols order:
	// those of the operator's subtree that its consumer reads. Valid after
	// Open.
	Schema() []string
}

// walkOps visits the operator tree, inputs left to right, seeing through
// timing wrappers: post-order (the reference evaluator's charge order),
// or with pre set in plan pre-order (the order of the run's Cards).
func walkOps(op Operator, pre bool, fn func(Operator)) {
	if t, ok := op.(timedOp); ok {
		op = t.Operator
	}
	if pre {
		fn(op)
	}
	switch o := op.(type) {
	case *hashJoinOp:
		walkOps(o.left, pre, fn)
		walkOps(o.right, pre, fn)
	case *crossJoinOp:
		walkOps(o.left, pre, fn)
		walkOps(o.right, pre, fn)
	case *aggSink:
		walkOps(o.child, pre, fn)
	}
	if !pre {
		fn(op)
	}
}

// colSrc locates one join output column in the join's inputs: a position
// in the left or the right child's schema.
type colSrc struct {
	left bool
	pos  int
}

// joinSchema appends to schema the aliases of ls then rs that need lists —
// a join's pruned output layout — and to srcs where each one comes from.
func joinSchema(schema []string, srcs []colSrc, ls, rs, need []string) ([]string, []colSrc) {
	for i, a := range ls {
		if slices.Contains(need, a) {
			schema, srcs = append(schema, a), append(srcs, colSrc{left: true, pos: i})
		}
	}
	for i, a := range rs {
		if slices.Contains(need, a) {
			schema, srcs = append(schema, a), append(srcs, colSrc{pos: i})
		}
	}
	return schema, srcs
}

// joinNeed appends to dst the aliases a join's inputs must emit: what the
// join's consumer reads plus both sides of every join condition.
func joinNeed(dst, need []string, conds []query.Join) []string {
	dst = append(dst, need...)
	for _, j := range conds {
		for _, a := range [2]string{j.LeftAlias, j.RightAlias} {
			if !slices.Contains(dst, a) {
				dst = append(dst, a)
			}
		}
	}
	return dst
}

// gatherRows appends col[i] for every i in idx to dst.
func gatherRows(dst, col, idx []int32) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, len(idx))[:n+len(idx)]
	for k, i := range idx {
		dst[n+k] = col[i]
	}
	return dst
}
