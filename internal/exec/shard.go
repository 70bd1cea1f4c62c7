// Scatter-gather execution of sharded scans: the merge operator running
// a Merge leaf's partitions behind the ShardBackend interface. The
// executor itself is the in-process backend (ScanShard); a wire protocol
// — or a test's fault injector — can implement the same interface
// without touching the operators.
//
// Determinism contract (same discipline as the vectorized kernels):
// shards partition the table's zone-map blocks
// round-robin (block b → shard b mod N), each shard emits its matching
// row ids in ascending order, and the merge operator k-way-merges the
// per-shard streams by head row id — reproducing the unsharded scan's
// global row order exactly. Work units are charged analytically on the
// Merge operator over the full table (ScanShard charges nothing), so
// Count, Value, Cards and CostStats.WorkUnits stay byte-identical
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

// ShardBackend runs one shard of a sharded scan. scan is the Merge leaf
// whose table and predicates to scan, its predicates already bound for
// the run; the backend must return the matching row ids of partition shard-of-of in
// ascending order (see Executor.ScanShard for the partitioning
// contract). Implementations must be safe for concurrent ScanShard
// calls — the merge operator scatters all shards at once. *Executor
// implements it.
type ShardBackend interface {
	ScanShard(ctx context.Context, scan *plan.Node, shard, of int) (*ShardResult, error)
}

// ScanShard evaluates one hash partition of a Merge leaf's scan: zone-map
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
	if scan == nil || scan.Op != plan.Merge || !scan.IsLeaf() {
		return nil, fmt.Errorf("exec: ScanShard requires a Merge leaf")
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
	// res.Rows stays plainly allocated — the merge operator retains it
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

// mergeOp gathers a Merge leaf's shard streams back into the unsharded
// scan's output: Open scatters every shard to the backend concurrently,
// summing their block counts into its own telemetry; Next k-way-merges
// the per-shard ascending row-id streams by head row id. Work units are
// the unsharded scan's analytic charges (startup + full per-row
// read/predicate work at Open, per-row output at exhaustion), so
// sharding never changes CostStats.
type mergeOp struct {
	scanBase
	backend ShardBackend
	bound   plan.Node // a generic leaf with its predicates bound for the run
	shards  []*ShardResult
	cursors []int
}

func (m *mergeOp) Open(ctx context.Context) error {
	tbl, err := m.open(ctx)
	if err != nil {
		return err
	}
	// A generic leaf reaches the backend as a copy carrying its binding.
	scan := m.node
	if scan.Generic() {
		m.bound = *scan
		m.bound.Preds = scan.BindPreds(nil, m.q)
		scan = &m.bound
	}
	// Bind predicate columns up front so sharded plans fail on unknown
	// columns exactly like unsharded ones, before any shard runs.
	if _, err = bindPredCols(nil, tbl, scan.Preds); err != nil {
		return err
	}
	nrows := tbl.NumRows()
	m.tel.RowsIn = int64(nrows)
	m.tel.tuplesRead = int64(nrows)
	m.tel.charges = append(m.tel.charges,
		cStartup,
		float64(nrows)*(cRead+cPred*float64(len(scan.Preds))))
	// Scatter: run every shard concurrently; join before returning so
	// cancellation never leaks goroutines.
	n := m.node.Shards
	m.shards = make([]*ShardResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range m.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.shards[i], errs[i] = m.backend.ScanShard(ctx, scan, i, n)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, r := range m.shards {
		m.tel.BlocksTotal += r.BlocksTotal
		m.tel.BlocksSkipped += r.BlocksSkipped
	}
	m.cursors = make([]int, n)
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
		for i, r := range m.shards {
			if m.cursors[i] >= len(r.Rows) {
				continue
			}
			if best < 0 || r.Rows[m.cursors[i]] < m.shards[best].Rows[m.cursors[best]] {
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
		rows := m.shards[best].Rows
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
		m.finish()
		return nil, nil
	}
	idx := 0
	return emit(&m.pending, &idx, &m.out, len(m.schema), &m.tel, bs), nil
}

func (m *mergeOp) Close() error {
	m.shards, m.cursors = nil, nil
	return m.scanBase.Close()
}
