// Scan operators: streaming sequential scan with pushed-down predicate
// filtering (serial or span-partitioned across the worker pool) and index
// scan with residual predicate filtering. Both emit their selection
// vector itself as the batch's one column — or no column at all when the
// consumer reads none of it.
package exec

import (
	"context"
	"fmt"
	"slices"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// scanSegmentRows is how many input rows per worker a partitioned scan
// filters per fill step. Each segment is forked across the pool and joined
// before the next, so in-flight intermediate state stays bounded while
// span-order concatenation keeps output identical to the serial path.
const scanSegmentRows = 8192

// scanSchema is a scan's output layout: its alias when need lists it, else
// nothing.
func scanSchema(dst *[1]string, alias string, need []string) []string {
	dst[0] = alias
	if slices.Contains(need, alias) {
		return dst[:]
	}
	return dst[:0]
}

// seqScanOp streams the matching row ids of a sequential scan in batches.
type seqScanOp struct {
	e    *Executor
	node *plan.Node
	pool *BatchPool
	need []string // aliases the consumer reads

	ctx    context.Context
	alias  [1]string
	schema []string
	cols   []*data.Column
	nrows  int
	filter blockFilter // compiled vectorized filter, recompiled by every Open
	parts  [][]int32   // per-span vectors of the partitioned fill

	cursor  int   // next unread input row
	pending Batch // one pooled vector: matching row ids awaiting emission
	pendIdx int
	done    bool
	out     Batch
	tel     OpTelemetry
}

func (s *seqScanOp) Open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.ctx = ctx
	s.tel.Op = s.node.Op.String()
	s.tel.Node = s.node
	s.schema = scanSchema(&s.alias, s.node.Alias, s.need)
	tbl := s.e.Cat.Table(s.node.Table)
	if tbl == nil {
		return fmt.Errorf("exec: unknown table %q", s.node.Table)
	}
	preds := s.node.Preds
	var err error
	if s.cols, err = bindPredCols(s.cols[:0], tbl, preds); err != nil {
		return err
	}
	s.nrows = tbl.NumRows()
	s.filter.compile(s.cols, preds, s.nrows)
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
	return emit(&s.pending, &s.pendIdx, &s.out, len(s.schema), &s.tel, s.e.batchSize()), nil
}

// fill refills the pending vector from the next chunk of input rows:
// serially up to a batch of matches, or one span-partitioned segment on
// the worker pool. Both paths run the vectorized block kernels; output
// content and order are identical either way.
func (s *seqScanOp) fill() (err error) {
	if w := s.e.workers(); w > 1 && s.nrows >= parallelMinRows {
		return s.fillParallel(w)
	}
	s.pending.Cols[0], err = s.fillSerial(s.pending.Cols[0])
	return err
}

func (s *seqScanOp) fillSerial(rows []int32) ([]int32, error) {
	bs := s.e.batchSize()
	// One zone block per step, skipped entirely when pruned, the kernels
	// appending straight into the output vector. The cursor only ever
	// rests on block boundaries (or 0).
	for s.cursor < s.nrows && len(rows) < bs {
		if err := s.ctx.Err(); err != nil {
			return rows, err
		}
		b := s.cursor / data.ZoneBlockSize
		end := min((b+1)*data.ZoneBlockSize, s.nrows)
		if !s.filter.skips(b) {
			rows = s.filter.filterRange(int32(s.cursor), int32(end), rows)
		}
		s.cursor = end
	}
	return rows, nil
}

func (s *seqScanOp) fillParallel(w int) error {
	for len(s.pending.Cols[0]) == 0 && s.cursor < s.nrows {
		hi := min(s.cursor+w*scanSegmentRows, s.nrows)
		lo := s.cursor
		collectSpans(s.pool, splitSpans(hi-lo, w), s.pending.Cols, &s.parts, func(_ int, sp span, out [][]int32) bool {
			out[0] = s.filter.filterSpan(s.ctx, lo+sp.lo, lo+sp.hi, out[0])
			return true // a partial vector is discarded by the ctx check below
		})
		if err := s.ctx.Err(); err != nil {
			return err
		}
		s.cursor = hi
	}
	return nil
}

func (s *seqScanOp) finish() {
	s.done = true
	s.tel.charges = append(s.tel.charges, float64(s.tel.RowsOut)*cOutput)
	s.node.TrueCard = float64(s.tel.RowsOut)
}

// Close returns the pending vector; safe to call twice.
func (s *seqScanOp) Close() error {
	s.pending.free(s.pool)
	s.out.forget()
	return nil
}
func (s *seqScanOp) Telemetry() *OpTelemetry { return &s.tel }
func (s *seqScanOp) Schema() []string        { return s.schema }

func (s *seqScanOp) recycle(p *BatchPool) {
	clear(s.cols)
	s.filter.reset()
	*s = seqScanOp{cols: s.cols[:0], filter: s.filter, parts: s.parts[:0], pending: s.pending, out: s.out, tel: OpTelemetry{charges: s.tel.charges[:0]}}
	p.ops[opSeqScan].Put(s)
}

// indexScanOp probes an equality index and streams the rows surviving the
// residual predicates.
type indexScanOp struct {
	e    *Executor
	node *plan.Node
	pool *BatchPool
	need []string // aliases the consumer reads

	ctx    context.Context
	alias  [1]string
	schema []string
	rows   []int32 // the index's posting list
	cols   []*data.Column
	rest   []query.Pred
	filter blockFilter // residual-filter kernels, recompiled by every Open

	cursor  int
	done    bool
	pending Batch // one pooled vector: the next batch's row ids
	out     Batch
	tel     OpTelemetry
}

func (s *indexScanOp) Open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.ctx = ctx
	s.tel.Op = s.node.Op.String()
	s.tel.Node = s.node
	s.schema = scanSchema(&s.alias, s.node.Alias, s.need)
	tbl := s.e.Cat.Table(s.node.Table)
	if tbl == nil {
		return fmt.Errorf("exec: unknown table %q", s.node.Table)
	}
	preds := s.node.Preds
	eqIdx := -1
	var ix *data.Index
	for i, p := range preds {
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
	s.rows = ix.Rows(preds[eqIdx].Val.I)
	s.rest = s.rest[:0]
	for i, p := range preds {
		if i != eqIdx {
			s.rest = append(s.rest, p)
		}
	}
	var err error
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
		s.done = true
		s.tel.charges = append(s.tel.charges, float64(s.tel.RowsOut)*cOutput)
		s.node.TrueCard = float64(s.tel.RowsOut)
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
	s.pending.free(s.pool)
	s.out.forget()
	s.rows = nil
	return nil
}
func (s *indexScanOp) Telemetry() *OpTelemetry { return &s.tel }
func (s *indexScanOp) Schema() []string        { return s.schema }

func (s *indexScanOp) recycle(p *BatchPool) {
	clear(s.cols)
	clear(s.rest)
	s.filter.reset()
	*s = indexScanOp{cols: s.cols[:0], rest: s.rest[:0], filter: s.filter, pending: s.pending, out: s.out, tel: OpTelemetry{charges: s.tel.charges[:0]}}
	p.ops[opIndexScan].Put(s)
}
