// Package exec implements the executor of the workbench's engine
// substrate: a pipeline of streaming batch operators (see operator.go)
// that evaluates physical plans over the in-memory catalog, producing
// exact result cardinalities (the training labels for every learned
// component), per-operator execution telemetry, and a deterministic cost
// measurement.
//
// Latency model. Join results are always computed hash-based internally for
// tractability, but each operator is *charged* work units according to its
// own algorithm (nested-loop pays |L|·|R|, merge pays sort+merge, hash pays
// build+probe). Work units are the workbench's deterministic stand-in for
// wall-clock latency: plan comparisons and regression factors are exactly
// reproducible across runs and machines.
//
// The pre-pipeline recursive evaluator survives as ReferenceRun
// (reference.go) — the executable specification the pipeline is tested
// against for byte-identical Count, Value, TrueCard and WorkUnits.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// CostStats accumulates the executor's measured work.
type CostStats struct {
	TuplesRead   int64   // base-table tuples scanned
	TuplesJoined int64   // tuples emitted by joins
	IndexLookups int64   // index probes
	WorkUnits    float64 // total charged work (the latency proxy)
}

// Add accumulates other into s.
func (s *CostStats) Add(other CostStats) {
	s.TuplesRead += other.TuplesRead
	s.TuplesJoined += other.TuplesJoined
	s.IndexLookups += other.IndexLookups
	s.WorkUnits += other.WorkUnits
}

// Per-tuple work constants. The ratios mirror PostgreSQL's defaults in
// spirit: sequential reads are cheap, random index access costs more per
// lookup but touches fewer tuples, hashing costs a little over reading.
const (
	cRead      = 1.0  // read one base tuple
	cPred      = 0.2  // evaluate one predicate on one tuple
	cHashBuild = 1.5  // insert one tuple into a hash table
	cHashProbe = 1.2  // probe one tuple
	cIndexSeek = 4.0  // one index lookup
	cOutput    = 0.3  // emit one tuple
	cNLCompare = 0.15 // one nested-loop pair comparison
	cSortUnit  = 1.1  // one n·log2(n) unit for merge-join sorting
	cStartup   = 5.0  // per-operator startup
)

// Result is the outcome of executing a plan.
type Result struct {
	Count int64 // result cardinality (row count of the join result)
	// Value is the query's aggregate: equal to Count for COUNT(*), and
	// the SUM/AVG/MIN/MAX of the target column otherwise (0 over an empty
	// result, except MIN/MAX which are NaN).
	Value float64
	Stats CostStats
}

// Executor runs physical plans against a catalog. Plans execute as a
// pipeline of streaming batch operators (see operator.go); with
// Workers > 1 the large-fanout phases (sequential-scan filtering, the
// hash-join probe) fork each segment across a worker pool. Results,
// TrueCard annotations and charged WorkUnits are identical at every
// worker count and batch size; only wall-clock changes.
//
// An Executor is safe for concurrent use by multiple goroutines as long
// as each concurrent run gets its own plan tree (a run annotates plan
// nodes' TrueCard in place).
type Executor struct {
	Cat *data.Catalog
	// MaxIntermediate caps materialized intermediate sizes; exceeded plans
	// fail rather than exhaust memory. 0 means the default (5M tuples).
	MaxIntermediate int
	// Workers is the intra-query parallelism degree. 0 or 1 means serial
	// execution; values above 1 partition scans and hash-join probes
	// across that many goroutines.
	Workers int
	// BatchSize is the number of rows per batch streamed between
	// operators. 0 means DefaultBatchSize. It trades per-batch overhead
	// against in-flight memory and never affects results.
	BatchSize int
	// Backend runs the shard subplans of Merge nodes (shard.go). Nil means
	// the executor itself (Executor.ScanShard).
	Backend ShardBackend

	// pool is the executor's shared buffer pool, reused across every run
	// for the executor's lifetime — a cached plan's steady-state executions
	// recycle the same buffers. Nil (an Executor built without New) means
	// plain allocation.
	pool *BatchPool
}

// SetPool installs the buffer pool the executor draws from, letting
// several executors — or a serving layer that owns the executor — share
// one. It is a construction-time setter: call it before the executor runs
// anything. A nil pool degrades to plain per-use allocation.
func (e *Executor) SetPool(p *BatchPool) { e.pool = p }

// New returns an executor over cat.
func New(cat *data.Catalog) *Executor {
	return &Executor{Cat: cat, pool: NewBatchPool()}
}

func (e *Executor) maxRows() int {
	if e.MaxIntermediate > 0 {
		return e.MaxIntermediate
	}
	return 5_000_000
}

func (e *Executor) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return DefaultBatchSize
}

// cancelCheckRows is how many rows a tight operator loop processes between
// cooperative cancellation checks. Small enough that a runaway scan or
// probe notices a deadline within microseconds, large enough that the
// per-row cost of ctx.Err() is amortized away.
const cancelCheckRows = 4096

// RunCtx executes the plan rooted at p for query q. It annotates every
// plan node's TrueCard and returns the final cardinality, the query's
// aggregate value, and the measured cost. Every operator's Next checks
// ctx at batch boundaries and every cancelCheckRows rows inside tight
// loops (serial and parallel), so a query past its deadline — or
// canceled by its caller — aborts promptly with ctx.Err() instead of
// running to completion. All worker goroutines observe the same context and are
// joined before RunCtx returns; cancellation never leaks goroutines.
func (e *Executor) RunCtx(ctx context.Context, q *query.Query, p *plan.Node) (*Result, error) {
	res, _, err := e.run(ctx, q, p, false)
	return res, err
}

// RunAnalyze executes like RunCtx with every operator timed, and
// additionally returns the plan's per-operator telemetry — estimated-vs-
// actual rows, charged work and wall-clock per operator — for EXPLAIN
// ANALYZE rendering, sub-plan training labels, and optimizer feedback.
// The telemetry is a copy: its operators are recycled into later runs.
func (e *Executor) RunAnalyze(ctx context.Context, q *query.Query, p *plan.Node) (*Result, *PlanTelemetry, error) {
	return e.run(ctx, q, p, true)
}

func (e *Executor) run(ctx context.Context, q *query.Query, p *plan.Node, analyze bool) (res *Result, pt *PlanTelemetry, err error) {
	sink := newAggSink(e, q)
	root, err := e.buildOperator(q, p, sink.needed, analyze)
	if err != nil {
		return nil, nil, err
	}
	// Decouple the sink from the root producer so the final join overlaps
	// the aggregate fold (a no-op wrapper unless Workers > 1).
	sink.child = e.stage(root, analyze)
	top := timed(sink, analyze)
	if oerr := top.Open(ctx); oerr != nil {
		// Close releases whatever Open managed to acquire; the Open
		// error leads, teardown damage rides along.
		return nil, nil, errors.Join(oerr, top.Close())
	}
	// A teardown failure surfaces unless an execution error already won.
	// Only a tree that ran and closed cleanly is recycled.
	defer func() {
		if cerr := top.Close(); err == nil && cerr != nil {
			res, pt, err = nil, nil, cerr
		} else if err == nil && e.pool != nil {
			walkOps(top, func(op Operator) {
				if r, ok := op.(recycler); ok {
					r.recycle(e.pool)
				}
			})
		}
	}()
	if _, err := top.Next(); err != nil { // the sink's Next drains its input
		return nil, nil, err
	}
	// Error precedence mirrors the reference evaluator: evaluation errors
	// first (returned by drain), then the context, then aggregate binding.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if sink.bindErr != nil {
		return nil, nil, sink.bindErr
	}
	if analyze {
		pt = snapshotTelemetry(top)
	}
	res = &Result{Count: sink.count, Value: sink.value()}
	// Charges fold in the reference evaluator's order — post-order, sink
	// last — because float64 addition is not associative.
	walkOps(top, func(op Operator) { op.Telemetry().foldInto(&res.Stats) })
	return res, pt, nil
}

func bindPredCols(dst []*data.Column, tbl *data.Table, preds []query.Pred) ([]*data.Column, error) {
	for _, p := range preds {
		c := tbl.Column(p.Column)
		if c == nil {
			return nil, fmt.Errorf("exec: unknown column %s.%s", tbl.Name, p.Column)
		}
		dst = append(dst, c)
	}
	return dst, nil
}

// matchesAll is the scalar row-at-a-time filter: every predicate against
// its bound column at row. Int and dictionary-encoded String columns
// compare through the exact int64 path — float64 loses exactness above
// 2^53, so the old all-float route conflated adjacent large keys.
func matchesAll(cols []*data.Column, preds []query.Pred, row int) bool {
	for i, p := range preds {
		c := cols[i]
		if c.Kind == data.Float {
			if !p.Matches(c.Flts[row]) {
				return false
			}
		} else if !p.MatchesInt(c.Ints[row]) {
			return false
		}
	}
	return true
}

// productExceeds reports whether a·b > limit. The comparison happens in
// float64: computing a*b in int can overflow (wrapping negative and
// slipping past the cap guard) on 32-bit platforms or pathological
// inputs, and even int64 wraps once both sides near 2^31.5. Relation
// sizes are bounded by the intermediate cap (≤ millions), so the float64
// product is exact far beyond every reachable boundary.
func productExceeds(a, b, limit int) bool {
	return float64(a)*float64(b) > float64(limit)
}

func nlogn(n float64) float64 {
	if n < 2 {
		return n
	}
	return n * math.Log2(n)
}
