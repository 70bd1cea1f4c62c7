// Scatter-gather execution of sharded scans: the merge/exchange operator
// pair running a Merge node's shard subplans behind the ShardBackend
// interface. The executor itself is the in-process backend (ScanShard); a
// wire protocol — or a test's fault injector — can implement the same
// interface without touching the operators.
//
// Determinism contract (same discipline as the worker pool and the
// vectorized kernels): shards partition the table's zone-map blocks
// round-robin (block b → shard b mod N), each shard emits its matching
// row ids in ascending order, and the merge operator k-way-merges the
// per-shard streams by head row id — reproducing the unsharded scan's
// global row order exactly. Work units are charged analytically on the
// Merge operator over the full table (exchange operators charge nothing),
// so Count, Value, TrueCard and CostStats.WorkUnits stay byte-identical
// to ReferenceRun at every shard count.
package exec

import (
	"context"
	"fmt"
	"sync"

	"lqo/internal/data"
	"lqo/internal/plan"
)

// ShardResult is one shard's scan output: the matching row ids of the
// shard's blocks in ascending order, plus zone-map pruning evidence
// restricted to the blocks the shard owns.
type ShardResult struct {
	Rows          []int32
	BlocksTotal   int64
	BlocksSkipped int64
}

// ShardBackend runs one shard of a sharded scan. scan is the SeqScan leaf
// an Exchange node wraps; the backend must return the matching row ids of
// partition shard-of-of in ascending order (see Executor.ScanShard for the
// partitioning contract). Implementations must be safe for concurrent
// ScanShard calls — the merge operator scatters all shards at once.
// *Executor implements it.
type ShardBackend interface {
	ScanShard(ctx context.Context, scan *plan.Node, shard, of int) (*ShardResult, error)
}

// ScanShard evaluates one hash partition of a sequential scan: zone-map
// blocks are assigned round-robin (block b belongs to shard b mod of),
// and the shard's matching row ids are returned in ascending order. The
// union of all shards is exactly the unsharded scan's output, and block
// pruning telemetry sums to the unsharded scan's counts. No work units
// are charged here — the merge operator charges the canonical analytic
// amounts for the whole scan.
func (e *Executor) ScanShard(ctx context.Context, scan *plan.Node, shard, of int) (*ShardResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if scan == nil || scan.Op != plan.SeqScan || !scan.IsLeaf() {
		return nil, fmt.Errorf("exec: ScanShard requires a SeqScan leaf")
	}
	if of < 1 || shard < 0 || shard >= of {
		return nil, fmt.Errorf("exec: shard %d of %d out of range", shard, of)
	}
	tbl := e.Cat.Table(scan.Table)
	if tbl == nil {
		return nil, fmt.Errorf("exec: unknown table %q", scan.Table)
	}
	preds := scan.Preds
	cols, err := bindPredCols(nil, tbl, preds)
	if err != nil {
		return nil, err
	}
	nrows := tbl.NumRows()
	bf := newBlockFilter(cols, preds, nrows)
	res := &ShardResult{}
	// res.Rows stays plainly allocated — the exchange operator retains it
	// for the whole run — but the per-block selection vector is pooled.
	sel := e.pool.GetSel(0)
	defer func() { e.pool.PutSel(sel) }()
	nblocks := data.ZoneBlocks(nrows)
	for b := shard; b < nblocks; b += of {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lo := b * data.ZoneBlockSize
		hi := lo + data.ZoneBlockSize
		if hi > nrows {
			hi = nrows
		}
		if len(bf.pruned) > 0 {
			res.BlocksTotal++
			if bf.pruned[b] {
				res.BlocksSkipped++
				continue
			}
		}
		sel = bf.filterRange(int32(lo), int32(hi), sel[:0])
		res.Rows = append(res.Rows, sel...)
	}
	return res, nil
}

// exchangeOp fetches one shard's rows from the backend. It is driven by
// its parent mergeOp (which scatters all shards concurrently in Open and
// consumes x.rows directly); Next never emits. The operator exists so the
// telemetry tree shows per-shard evidence — rows, blocks, wall time —
// in EXPLAIN ANALYZE. It charges no work units: the merge operator
// charges the whole scan analytically.
type exchangeOp struct {
	backend ShardBackend
	node    *plan.Node // the Exchange node; node.Left is the shard's scan

	rows []int32
	tel  OpTelemetry
}

func (x *exchangeOp) Open(ctx context.Context) error {
	x.tel.Op = x.node.Op.String()
	x.tel.Node = x.node
	if err := ctx.Err(); err != nil {
		return err
	}
	res, err := x.backend.ScanShard(ctx, x.node.Left, x.node.Shard, x.node.ShardOf)
	if err != nil {
		return err
	}
	x.rows = res.Rows
	x.tel.RowsIn = int64(len(res.Rows))
	x.tel.RowsOut = int64(len(res.Rows))
	x.tel.Batches = 1
	x.tel.BlocksTotal = res.BlocksTotal
	x.tel.BlocksSkipped = res.BlocksSkipped
	// Per-shard actuals: info for EXPLAIN ANALYZE and the pass debugger.
	// Logical walks (feedback, cache snapshots) never see these nodes.
	x.node.TrueCard = float64(len(res.Rows))
	x.node.Left.TrueCard = float64(len(res.Rows))
	return nil
}

func (x *exchangeOp) Next() (*Batch, error)   { return nil, nil }
func (x *exchangeOp) Close() error            { x.rows = nil; return nil }
func (x *exchangeOp) Telemetry() *OpTelemetry { return &x.tel }
func (x *exchangeOp) Schema() []string        { return []string{x.node.Left.Alias} }

// mergeOp gathers a Merge node's shard streams back into the unsharded
// scan's output: Open scatters every exchange child concurrently, Next
// k-way-merges the per-shard ascending row-id streams by head row id.
// Work units are the unsharded scan's analytic charges (startup + full
// per-row read/predicate work at Open, per-row output at exhaustion), so
// sharding never changes CostStats.
type mergeOp struct {
	e    *Executor
	node *plan.Node
	exs  []*exchangeOp
	pool *BatchPool
	// analyze times the exchanges, which Open drives directly, as
	// buildOperator times every other operator of a RunAnalyze run.
	analyze bool

	need []string // aliases the consumer reads

	ctx     context.Context
	alias   [1]string
	schema  []string
	cursors []int
	pending Batch // one pooled vector: the next batch's row ids
	done    bool
	out     Batch
	tel     OpTelemetry
}

func (m *mergeOp) Open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.ctx = ctx
	m.tel.Op = m.node.Op.String()
	m.tel.Node = m.node
	m.schema = scanSchema(&m.alias, m.node.Alias, m.need)
	tbl := m.e.Cat.Table(m.node.Table)
	if tbl == nil {
		return fmt.Errorf("exec: unknown table %q", m.node.Table)
	}
	// Bind predicate columns up front so sharded plans fail on unknown
	// columns exactly like unsharded ones, before any shard runs.
	if _, err := bindPredCols(nil, tbl, m.node.Preds); err != nil {
		return err
	}
	nrows := tbl.NumRows()
	m.tel.RowsIn = int64(nrows)
	m.tel.tuplesRead = int64(nrows)
	m.tel.charges = append(m.tel.charges,
		cStartup,
		float64(nrows)*(cRead+cPred*float64(len(m.node.Preds))))
	// Scatter: run every shard concurrently; join before returning so
	// cancellation never leaks goroutines.
	errs := make([]error, len(m.exs))
	var wg sync.WaitGroup
	for i, x := range m.exs {
		wg.Add(1)
		go func(i int, x *exchangeOp) {
			defer wg.Done()
			errs[i] = timed(x, m.analyze).Open(ctx)
		}(i, x)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	m.cursors = make([]int, len(m.exs))
	m.pending.alloc(m.pool, 1)
	return nil
}

func (m *mergeOp) Next() (*Batch, error) {
	if err := m.ctx.Err(); err != nil {
		return nil, err
	}
	if m.done {
		return nil, nil
	}
	bs := m.e.batchSize()
	ids := m.pending.Cols[0][:0]
	for n := 0; len(ids) < bs; n++ {
		// Every 4 runs ≈ a few thousand rows between ctx checks.
		if n%4 == 0 && n > 0 {
			if err := m.ctx.Err(); err != nil {
				m.pending.Cols[0] = ids
				return nil, err
			}
		}
		best := -1
		for i, x := range m.exs {
			if m.cursors[i] >= len(x.rows) {
				continue
			}
			if best < 0 || x.rows[m.cursors[i]] < m.exs[best].rows[m.cursors[best]] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		// The head shard owns the head row's whole zone block, and its next
		// block is N blocks away — so its run of rows below the block
		// boundary is exactly the globally-next slice of output. Copy the
		// run in bulk instead of re-comparing shard heads per row.
		rows := m.exs[best].rows
		cur := m.cursors[best]
		blockEnd := (rows[cur]/int32(data.ZoneBlockSize) + 1) * int32(data.ZoneBlockSize)
		end := cur + 1
		for end < len(rows) && rows[end] < blockEnd && len(ids)+(end-cur) < bs {
			end++
		}
		ids = append(ids, rows[cur:end]...)
		m.cursors[best] = end
	}
	m.pending.Cols[0], m.pending.N = ids, len(ids)
	if len(ids) == 0 {
		m.done = true
		m.tel.charges = append(m.tel.charges, float64(m.tel.RowsOut)*cOutput)
		m.node.TrueCard = float64(m.tel.RowsOut)
		return nil, nil
	}
	idx := 0
	return emit(&m.pending, &idx, &m.out, len(m.schema), &m.tel, bs), nil
}

func (m *mergeOp) Close() error {
	// Every exchange is closed regardless of earlier failures; the first
	// error wins (the rest are repeats of the same teardown).
	var firstErr error
	for _, x := range m.exs {
		if err := x.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.pending.free(m.pool)
	m.out.forget()
	m.cursors = nil
	return firstErr
}

func (m *mergeOp) Telemetry() *OpTelemetry { return &m.tel }
func (m *mergeOp) Schema() []string        { return m.schema }
