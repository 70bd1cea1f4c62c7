// Scan operators: streaming sequential scan with pushed-down predicate
// filtering and index scan with residual predicate filtering. Both emit
// their selection vector itself as the batch's one column — or no column
// at all when the consumer reads none of it.
package exec

import (
	"context"
	"fmt"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// scanBase is what every scan operator shares: the leaf it scans for the
// run's query and what the run's Binding resolved for it, its pending
// vector and its telemetry.
type scanBase struct {
	e       *Executor
	q       *query.Query
	node    *plan.Node
	pool    *runSet
	tbl     *data.Table
	generic bool           // the leaf binds q's predicates
	bcols   []*data.Column // a non-generic leaf's predicates' columns (the binding's)
	width   int            // 1 when the consumer reads the leaf's alias, else 0

	ctx     context.Context
	preds   []query.Pred   // a generic leaf's predicates, bound for the run
	cols    []*data.Column // their columns
	pending Batch          // one pooled vector: row ids awaiting emission
	done    bool
	out     Batch
	tel     OpTelemetry
}

// init points a drawn scan at leaf n, the entry nb of binding b.
func (s *scanBase) init(e *Executor, q *query.Query, n *plan.Node, pool *runSet, b *Binding, nb *nodeBinding) {
	s.e, s.q, s.node, s.pool = e, q, n, pool
	s.tbl, s.generic, s.bcols = nb.tbl, nb.generic, view(b.cols, nb.cols)
	s.width = nb.width()
}

// open is every scan's Open prologue; it returns the leaf's predicates
// for the run and their columns: the plan's and the binding's, or a
// generic leaf's bound from the run's query.
func (b *scanBase) open(ctx context.Context) (preds []query.Pred, cols []*data.Column, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	b.ctx = ctx
	b.tel.Op = b.node.Op.String()
	b.tel.Node = b.node
	if !b.generic {
		return b.node.Preds, b.bcols, nil
	}
	b.preds = b.node.BindPreds(b.preds[:0], b.q)
	b.cols, err = bindPredCols(b.cols[:0], b.tbl, b.preds)
	return b.preds, b.cols, err
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

// recycled is the base emptied for the pool, keeping buffer capacity.
func (b *scanBase) recycled() scanBase {
	clear(b.preds)
	clear(b.cols)
	return scanBase{preds: b.preds[:0], cols: b.cols[:0], pending: b.pending, out: b.out, tel: OpTelemetry{charges: b.tel.charges[:0]}}
}

// seqScanOp streams the matching row ids of a sequential scan in batches.
type seqScanOp struct {
	scanBase
	nrows  int
	filter blockFilter // compiled vectorized filter, recompiled by every Open

	cursor  int // next unread input row
	pendIdx int
}

func (s *seqScanOp) Open(ctx context.Context) error {
	preds, cols, err := s.open(ctx)
	if err != nil {
		return err
	}
	s.nrows = s.tbl.NumRows()
	s.filter.compile(cols, preds, s.nrows)
	s.tel.BlocksTotal, s.tel.BlocksSkipped = s.filter.blocks()
	s.pending.alloc(s.pool, 1)
	s.tel.RowsIn = int64(s.nrows)
	s.tel.tuplesRead = int64(s.nrows)
	// Charges are analytic over the full table: pruned blocks still pay
	// the canonical per-row read/predicate work, keeping WorkUnits (and
	// every learned-cost training label) identical with pruning on or off.
	s.tel.charges = append(s.tel.charges,
		cStartup,
		float64(s.nrows)*(cRead+cPred*float64(len(preds))))
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
	return emit(&s.pending, &s.pendIdx, &s.out, s.width, &s.tel, s.e.batchSize()), nil
}

// fill refills the pending vector with up to a batch of matches from the
// next zone blocks, the kernels appending straight into it. The cursor
// only ever rests on block boundaries (or 0).
func (s *seqScanOp) fill() (err error) {
	s.pending.Cols[0], s.cursor, err = s.filter.filterBlocks(s.ctx, s.cursor, s.nrows, s.e.batchSize(), s.pending.Cols[0])
	return err
}

// indexOn returns the index on the scan's column c when the scan has no
// predicates and the index covers every row it reads; else nil.
func (s *seqScanOp) indexOn(c *data.Column) *data.Index {
	if len(s.filter.preds) > 0 || s.tbl.Column(c.Name) != c {
		return nil
	}
	if ix := s.tbl.Index(c.Name); ix != nil && ix.NumRows() == s.nrows {
		return ix
	}
	return nil
}

// skip finishes the scan unread, for a consumer that probed its rows
// through an index: it reports and charges every row emitted, as a
// predicate-free drain does, in no batch.
func (s *seqScanOp) skip() {
	s.tel.RowsOut = int64(s.nrows)
	s.finish()
}

func (s *seqScanOp) recycle(p *runSet) {
	s.filter.reset()
	*s = seqScanOp{scanBase: s.recycled(), filter: s.filter}
	p.ops[opSeqScan] = append(p.ops[opSeqScan], s)
}

// indexScanOp probes an equality index and streams the rows surviving the
// residual predicates.
type indexScanOp struct {
	scanBase
	rows   []int32        // the index's posting list
	rest   []query.Pred   // the residual predicates
	rcols  []*data.Column // their columns
	filter blockFilter    // residual-filter kernels, recompiled by every Open
	cursor int
}

func (s *indexScanOp) Open(ctx context.Context) error {
	preds, cols, err := s.open(ctx)
	if err != nil {
		return err
	}
	eqIdx := -1
	var ix *data.Index
	for i, p := range preds {
		if p.Op == query.Eq {
			if cand := s.tbl.Index(p.Column); cand != nil {
				eqIdx, ix = i, cand
				break
			}
		}
	}
	if ix == nil {
		return fmt.Errorf("exec: IndexScan on %s(%s) has no usable equality index", s.node.Table, s.node.Alias)
	}
	s.rows = ix.Rows(preds[eqIdx].Val.I)
	s.rest = append(append(s.rest[:0], preds[:eqIdx]...), preds[eqIdx+1:]...)
	s.rcols = append(append(s.rcols[:0], cols[:eqIdx]...), cols[eqIdx+1:]...)
	// An index scan's rows are a scattered posting list, so residual
	// predicates run refine kernels over it; zone-map pruning does not
	// apply (zero rows: no prune bitmap is built).
	s.filter.compile(s.rcols, s.rest, 0)
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
	return emit(&s.pending, &idx, &s.out, s.width, &s.tel, bs), nil
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

func (s *indexScanOp) recycle(p *runSet) {
	clear(s.rcols)
	clear(s.rest)
	s.filter.reset()
	*s = indexScanOp{scanBase: s.recycled(), rcols: s.rcols[:0], rest: s.rest[:0], filter: s.filter}
	p.ops[opIndexScan] = append(p.ops[opIndexScan], s)
}
