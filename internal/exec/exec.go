// Package exec implements the executor of the workbench's engine
// substrate: a pipeline of streaming batch operators (see operator.go)
// that evaluates physical plans over the in-memory catalog, producing
// exact result cardinalities (the training labels for every learned
// component), per-operator execution telemetry, and a deterministic cost
// measurement.
//
// Latency model. Equi-join results are always computed through a hash
// table internally for tractability — probing, when the probe side is a
// predicate-free scan with an index on the key, only the rows the index
// lists for the build keys (join.go) — but each operator is *charged* work
// units according to its own algorithm (nested-loop pays |L|·|R|, merge
// pays sort+merge, hash pays build+probe), over the rows its inputs hold
// whichever way they were read. Work units are the workbench's
// deterministic stand-in for wall-clock latency: plan comparisons and
// regression factors are exactly reproducible across runs and machines.
//
// The pre-pipeline recursive evaluator survives as ReferenceRun
// (reference.go) — the executable specification the pipeline is tested
// against for byte-identical Count, Value, Cards and WorkUnits.
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
	// Cards is the run's record of true cardinalities: the rows each plan
	// node produced, indexed by the node's plan pre-order (plan.Node.Walk).
	Cards []float64
	cards [11]float64 // Cards' room, up to 6 tables: no allocation of its own
}

// Executor runs physical plans against a catalog. Plans execute as a
// pipeline of streaming batch operators (see operator.go), every one on
// the caller's goroutine; the only fan-out is a Merge leaf's shard scans
// (shard.go). Results, the Cards record and charged WorkUnits are
// identical at every batch size and shard count; only wall-clock changes.
//
// An Executor is safe for concurrent use by multiple goroutines. RunCtx
// only reads the plan — per-run state lives in the operators and the
// Result — so concurrent runs may share one plan tree.
type Executor struct {
	Cat *data.Catalog
	// MaxIntermediate caps materialized intermediate sizes; exceeded plans
	// fail rather than exhaust memory. 0 means the default (5M tuples).
	MaxIntermediate int
	// Workers is ignored: every operator runs on the caller's goroutine.
	// It is kept only until the benchmark harness, which assigns it, drops
	// that assignment; nothing in the executor reads it.
	Workers int
	// BatchSize is the number of rows per batch streamed between
	// operators. 0 means DefaultBatchSize. It trades per-batch overhead
	// against in-flight memory and never affects results.
	BatchSize int
	// Backend scans the partitions of Merge leaves (shard.go). Nil means
	// in process: the shards scan the table the run bound.
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

// RunCtx executes the plan rooted at p for query q and returns the final
// cardinality, the query's aggregate value, the measured cost and every
// plan node's true cardinality (Result.Cards). A generic plan's scan
// leaves bind q's predicates when they open. Every operator's Next checks
// ctx at batch boundaries and every cancelCheckRows rows inside tight
// loops, so a query past its deadline — or canceled by its caller —
// aborts promptly with ctx.Err() instead of running to completion. Shard
// scans observe the same context and are joined before RunCtx returns;
// cancellation never leaks goroutines.
func (e *Executor) RunCtx(ctx context.Context, q *query.Query, p *plan.Node) (*Result, error) {
	return e.RunBound(ctx, e.Cat, q, p, nil)
}

// RunBound is RunCtx against cat, a Pin of the executor's catalog (or the
// catalog itself), reading the plan's catalog resolution from b, which
// Executor.Bind made for p and queries of q's shape. A b that is nil or
// not Current for q against cat is resolved again, into the run's own
// storage, as RunCtx does on every run. A caller that parsed q against a
// Pin passes that Pin, so that the run reads the tables the parse coded
// q's literals for.
func (e *Executor) RunBound(ctx context.Context, cat *data.Catalog, q *query.Query, p *plan.Node, b *Binding) (*Result, error) {
	res, _, err := e.run(ctx, cat, q, p, b, false)
	return res, err
}

// RunAnalyze executes like RunCtx with every operator timed, and
// additionally returns the plan's per-operator telemetry — estimated-vs-
// actual rows, charged work and wall-clock per operator — for EXPLAIN
// ANALYZE rendering, sub-plan training labels, and optimizer feedback.
// The telemetry is a copy: its operators are recycled into later runs.
//
// It then annotates p's TrueCard from Result.Cards, so p must not be
// shared; the annotation stays because benchmark/trace.go reads it.
func (e *Executor) RunAnalyze(ctx context.Context, q *query.Query, p *plan.Node) (*Result, *PlanTelemetry, error) {
	res, pt, err := e.run(ctx, e.Cat, q, p, nil, true)
	if err == nil {
		i := 0
		p.Walk(func(n *plan.Node) {
			n.TrueCard = res.Cards[i]
			i++
		})
	}
	return res, pt, err
}

func (e *Executor) run(ctx context.Context, cat *data.Catalog, q *query.Query, p *plan.Node, b *Binding, analyze bool) (res *Result, pt *PlanTelemetry, err error) {
	set := e.pool.checkout() // back after Close and recycle
	defer e.pool.checkin(set)
	if !b.Current(cat, q) {
		bd := &set.bind
		defer bd.release()
		if err := bd.fill(cat, q, p); err != nil {
			return nil, nil, err
		}
		b = &bd.Binding
	}
	sink := newAggSink(set, q, b)
	i := 0
	if sink.child, err = e.buildOperator(set, q, p, b, &i, analyze); err != nil {
		return nil, nil, err
	}
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
			walkOps(top, false, func(op Operator) {
				if r, ok := op.(recycler); ok {
					r.recycle(set)
				}
			})
		}
	}()
	if _, err := top.Next(); err != nil { // the sink's Next drains its input
		return nil, nil, err
	}
	// Error precedence mirrors the reference evaluator: evaluation errors
	// first (returned by drain), then the context, then an aggregate the
	// binding could not resolve.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if b.aggErr != nil {
		return nil, nil, b.aggErr
	}
	if analyze {
		pt = snapshotTelemetry(top)
	}
	res = &Result{Count: sink.count, Value: sink.value()}
	res.Cards = res.cards[:0] // an operator's output rows: its node's true card
	walkOps(sink.child, true, func(op Operator) { res.Cards = append(res.Cards, float64(op.Telemetry().RowsOut)) })
	// Charges fold in the reference evaluator's order — post-order, sink
	// last — because float64 addition is not associative.
	walkOps(top, false, func(op Operator) { op.Telemetry().foldInto(&res.Stats) })
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
