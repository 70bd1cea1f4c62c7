// Scan operators: streaming sequential scan with pushed-down predicate
// filtering and index scan with residual predicate filtering. Both emit
// their selection vector itself as the batch's one column — or no column
// at all when the consumer reads none of it.
package exec

import (
	"context"
	"fmt"
	"slices"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// scanSchema is a scan's output layout: its alias when need lists it, else
// nothing.
func scanSchema(dst *[1]string, alias string, need []string) []string {
	dst[0] = alias
	if slices.Contains(need, alias) {
		return dst[:]
	}
	return dst[:0]
}

// scanBase is what every scan operator shares: the leaf it scans for the
// run's query, its output layout, its pending vector and its telemetry.
type scanBase struct {
	e    *Executor
	q    *query.Query
	node *plan.Node
	pool *BatchPool
	need []string // aliases the consumer reads

	ctx     context.Context
	alias   [1]string
	schema  []string
	pending Batch // one pooled vector: row ids awaiting emission
	done    bool
	out     Batch
	tel     OpTelemetry
}

// open is every scan's Open prologue; it returns the leaf's table.
func (b *scanBase) open(ctx context.Context) (*data.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.ctx = ctx
	b.tel.Op = b.node.Op.String()
	b.tel.Node = b.node
	b.schema = scanSchema(&b.alias, b.node.Alias, b.need)
	tbl := b.e.Cat.Table(b.node.Table)
	if tbl == nil {
		return nil, fmt.Errorf("exec: unknown table %q", b.node.Table)
	}
	return tbl, nil
}

// finish marks the scan exhausted and charges its output.
func (b *scanBase) finish() {
	b.done = true
	b.tel.charges = append(b.tel.charges, float64(b.tel.RowsOut)*cOutput)
}

// Close returns the pending vector; safe to call twice.
func (b *scanBase) Close() error {
	b.pending.free(b.pool)
	b.out.forget()
	return nil
}
func (b *scanBase) Telemetry() *OpTelemetry { return &b.tel }
func (b *scanBase) Schema() []string        { return b.schema }

// recycled is the base emptied for the pool, keeping buffer capacity.
func (b *scanBase) recycled() scanBase {
	return scanBase{pending: b.pending, out: b.out, tel: OpTelemetry{charges: b.tel.charges[:0]}}
}

// seqScanOp streams the matching row ids of a sequential scan in batches.
type seqScanOp struct {
	scanBase
	preds  []query.Pred // bound by Open (plan.Node.BindPreds)
	cols   []*data.Column
	nrows  int
	filter blockFilter // compiled vectorized filter, recompiled by every Open

	cursor  int // next unread input row
	pendIdx int
}

func (s *seqScanOp) Open(ctx context.Context) error {
	tbl, err := s.open(ctx)
	if err != nil {
		return err
	}
	s.preds = s.node.BindPreds(s.preds[:0], s.q)
	if s.cols, err = bindPredCols(s.cols[:0], tbl, s.preds); err != nil {
		return err
	}
	s.nrows = tbl.NumRows()
	s.filter.compile(s.cols, s.preds, s.nrows)
	s.tel.BlocksTotal, s.tel.BlocksSkipped = s.filter.blocks()
	s.pending.alloc(s.pool, 1)
	s.tel.RowsIn = int64(s.nrows)
	s.tel.tuplesRead = int64(s.nrows)
	// Charges are analytic over the full table: pruned blocks still pay
	// the canonical per-row read/predicate work, keeping WorkUnits (and
	// every learned-cost training label) identical with pruning on or off.
	s.tel.charges = append(s.tel.charges,
		cStartup,
		float64(s.nrows)*(cRead+cPred*float64(len(s.preds))))
	return nil
}

func (s *seqScanOp) Next() (*Batch, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	if s.done {
		return nil, nil
	}
	if s.pendIdx == s.pending.N {
		s.pending.truncate()
		s.pendIdx = 0
		err := s.fill()
		s.pending.N = len(s.pending.Cols[0])
		if err != nil {
			return nil, err
		}
	}
	if s.pending.N == 0 {
		s.finish()
		return nil, nil
	}
	return emit(&s.pending, &s.pendIdx, &s.out, len(s.schema), &s.tel, s.e.batchSize()), nil
}

// fill refills the pending vector with up to a batch of matches from the
// next zone blocks, the kernels appending straight into it. The cursor
// only ever rests on block boundaries (or 0).
func (s *seqScanOp) fill() (err error) {
	s.pending.Cols[0], s.cursor, err = s.filter.filterBlocks(s.ctx, s.cursor, s.nrows, s.e.batchSize(), s.pending.Cols[0])
	return err
}

func (s *seqScanOp) recycle(p *BatchPool) {
	clear(s.preds)
	clear(s.cols)
	s.filter.reset()
	*s = seqScanOp{scanBase: s.recycled(), preds: s.preds[:0], cols: s.cols[:0], filter: s.filter}
	p.ops[opSeqScan].Put(s)
}

// indexScanOp probes an equality index and streams the rows surviving the
// residual predicates.
type indexScanOp struct {
	scanBase
	rows   []int32 // the index's posting list
	cols   []*data.Column
	rest   []query.Pred // the residual predicates, bound by Open
	filter blockFilter  // residual-filter kernels, recompiled by every Open
	cursor int
}

func (s *indexScanOp) Open(ctx context.Context) error {
	tbl, err := s.open(ctx)
	if err != nil {
		return err
	}
	s.rest = s.node.BindPreds(s.rest[:0], s.q)
	eqIdx := -1
	var ix *data.Index
	for i, p := range s.rest {
		if p.Op == query.Eq {
			if cand := tbl.Index(p.Column); cand != nil {
				eqIdx, ix = i, cand
				break
			}
		}
	}
	if ix == nil {
		return fmt.Errorf("exec: IndexScan on %s(%s) has no usable equality index", s.node.Table, s.node.Alias)
	}
	s.rows = ix.Rows(s.rest[eqIdx].Val.I)
	s.rest = slices.Delete(s.rest, eqIdx, eqIdx+1)
	if s.cols, err = bindPredCols(s.cols[:0], tbl, s.rest); err != nil {
		return err
	}
	// An index scan's rows are a scattered posting list, so residual
	// predicates run refine kernels over it; zone-map pruning does not
	// apply (zero rows: no prune bitmap is built).
	s.filter.compile(s.cols, s.rest, 0)
	s.pending.alloc(s.pool, 1)
	s.tel.RowsIn = int64(len(s.rows))
	s.tel.tuplesRead = int64(len(s.rows))
	s.tel.indexLookups = 1
	s.tel.charges = append(s.tel.charges,
		cStartup,
		cIndexSeek+float64(len(s.rows))*(cRead+cPred*float64(len(s.rest))))
	return nil
}

func (s *indexScanOp) Next() (*Batch, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	if s.done {
		return nil, nil
	}
	bs := s.e.batchSize()
	ids, err := s.fill(s.pending.Cols[0][:0], bs)
	s.pending.Cols[0], s.pending.N = ids, len(ids)
	if err != nil {
		return nil, err
	}
	if s.pending.N == 0 {
		s.finish()
		return nil, nil
	}
	idx := 0
	return emit(&s.pending, &idx, &s.out, len(s.schema), &s.tel, bs), nil
}

// fill appends up to bs surviving posting-list rows to ids.
// Residual filtering copies a chunk of the posting list onto the vector
// and refines the new suffix in place through every conjunct.
func (s *indexScanOp) fill(ids []int32, bs int) ([]int32, error) {
	for s.cursor < len(s.rows) && len(ids) < bs {
		if err := s.ctx.Err(); err != nil {
			return ids, err
		}
		take := min(bs-len(ids), len(s.rows)-s.cursor)
		mark := len(ids)
		ids = append(ids, s.rows[s.cursor:s.cursor+take]...)
		ids = ids[:mark+len(s.filter.refineIDs(ids[mark:]))]
		s.cursor += take
	}
	return ids, nil
}

// Close returns the pending vector. s.rows is the index's posting list,
// not ours to recycle.
func (s *indexScanOp) Close() error {
	s.rows = nil
	return s.scanBase.Close()
}

func (s *indexScanOp) recycle(p *BatchPool) {
	clear(s.cols)
	clear(s.rest)
	s.filter.reset()
	*s = indexScanOp{scanBase: s.recycled(), cols: s.cols[:0], rest: s.rest[:0], filter: s.filter}
	p.ops[opIndexScan].Put(s)
}
