// Scan operators: streaming sequential scan with pushed-down predicate
// filtering (serial or span-partitioned across the worker pool) and index
// scan with residual predicate filtering.
package exec

import (
	"context"
	"fmt"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// scanSegmentRows is how many input rows per worker a partitioned scan
// filters per fill step. Each segment is forked across the pool and joined
// before the next, so in-flight intermediate state stays bounded while
// span-order concatenation keeps output identical to the serial path.
const scanSegmentRows = 8192

// seqScanOp streams the matching row ids of a sequential scan in batches.
type seqScanOp struct {
	e    *Executor
	q    *query.Query
	node *plan.Node
	pool *BatchPool

	ctx    context.Context
	schema [1]string
	cols   []*data.Column
	preds  []query.Pred
	nrows  int
	filter blockFilter  // bf's storage, recompiled by every Open
	bf     *blockFilter // compiled vectorized filter; nil under NoVec
	sel    []int32      // pooled selection vector for the serial path

	arena  tupleArena   // slab storage behind every tuple this scan emits
	chunk  arenaChunk   // serial-path carving handle
	chunks []arenaChunk // one carving handle per span worker

	cursor  int       // next unread input row
	pending [][]int32 // pooled buffer of filtered tuples awaiting emission
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
	s.schema[0] = s.node.Alias
	tbl := s.e.Cat.Table(s.node.Table)
	if tbl == nil {
		return fmt.Errorf("exec: unknown table %q", s.node.Table)
	}
	s.preds = s.node.Preds
	var err error
	if s.cols, err = bindPredCols(s.cols[:0], tbl, s.preds); err != nil {
		return err
	}
	s.nrows = tbl.NumRows()
	if !s.e.NoVec {
		s.bf = &s.filter
		s.bf.compile(s.cols, s.preds, s.nrows)
		s.tel.BlocksTotal, s.tel.BlocksSkipped = s.bf.blocks()
	}
	if s.pool != nil {
		s.arena.pool = s.pool
		s.chunk.a = &s.arena
	}
	s.sel = s.pool.GetSel(0)
	s.pending = s.pool.GetTuples(0)
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
	if s.pendIdx == len(s.pending) {
		s.pending = s.pending[:0]
		s.pendIdx = 0
		if err := s.fill(); err != nil {
			return nil, err
		}
	}
	if len(s.pending) == 0 {
		s.finish()
		return nil, nil
	}
	return emitPending(&s.pending, &s.pendIdx, &s.out, &s.tel, s.e.batchSize()), nil
}

// fill refills pending from the next chunk of input rows: serially up to a
// batch of matches, or one span-partitioned segment on the worker pool.
// Both paths run the vectorized block kernels unless NoVec forced the
// scalar row loop; output content and order are identical either way.
func (s *seqScanOp) fill() error {
	w := s.e.workers()
	if w == 1 || s.nrows < parallelMinRows {
		return s.fillSerial()
	}
	return s.fillParallel(w)
}

func (s *seqScanOp) fillSerial() error {
	bs := s.e.batchSize()
	if s.bf == nil { // NoVec: scalar row-at-a-time filtering
		for s.cursor < s.nrows && len(s.pending) < bs {
			if s.cursor%cancelCheckRows == 0 {
				if err := s.ctx.Err(); err != nil {
					return err
				}
			}
			if matchesAll(s.cols, s.preds, s.cursor) {
				s.pending = append(s.pending, s.chunk.one(int32(s.cursor)))
			}
			s.cursor++
		}
		return nil
	}
	// Vectorized: one zone block per step, skipped entirely when pruned.
	// The cursor only ever rests on block boundaries (or 0).
	for s.cursor < s.nrows && len(s.pending) < bs {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		b := s.cursor / data.ZoneBlockSize
		end := (b + 1) * data.ZoneBlockSize
		if end > s.nrows {
			end = s.nrows
		}
		if !s.bf.skips(b) {
			s.sel = s.bf.filterRange(int32(s.cursor), int32(end), s.sel[:0])
			s.pending = appendTuples(s.pending, s.sel, &s.chunk)
		}
		s.cursor = end
	}
	return nil
}

func (s *seqScanOp) fillParallel(w int) error {
	for len(s.pending) == 0 && s.cursor < s.nrows {
		hi := s.cursor + w*scanSegmentRows
		if hi > s.nrows {
			hi = s.nrows
		}
		spans := splitSpans(hi-s.cursor, w)
		s.ensureChunks(len(spans))
		lo := s.cursor
		s.pending, _ = collectSpans(s.pool, spans, s.pending, func(si int, sp span, buf [][]int32) ([][]int32, bool) {
			if s.bf != nil {
				return filterSpanTuples(s.ctx, s.bf, lo+sp.lo, lo+sp.hi, buf, s.pool, &s.chunks[si]), true
			}
			for i := lo + sp.lo; i < lo+sp.hi; i++ {
				if (i-lo-sp.lo)%cancelCheckRows == 0 && s.ctx.Err() != nil {
					return buf, true // partial buffer discarded by the ctx check below
				}
				if matchesAll(s.cols, s.preds, i) {
					buf = append(buf, s.chunks[si].one(int32(i)))
				}
			}
			return buf, true
		})
		if err := s.ctx.Err(); err != nil {
			return err
		}
		s.cursor = hi
	}
	return nil
}

// ensureChunks sizes the per-span carving handles; chunk slab remainders
// persist across fill segments, so each worker index keeps carving where
// it left off.
func (s *seqScanOp) ensureChunks(n int) {
	if len(s.chunks) >= n {
		return
	}
	s.chunks = make([]arenaChunk, n)
	if s.pool != nil {
		for i := range s.chunks {
			s.chunks[i].a = &s.arena
		}
	}
}

func (s *seqScanOp) finish() {
	s.done = true
	s.tel.charges = append(s.tel.charges, float64(s.tel.RowsOut)*cOutput)
	s.node.TrueCard = float64(s.tel.RowsOut)
}

// Close returns every pooled buffer and releases the tuple arena. Safe to
// call twice: Put(nil) is a no-op and release is idempotent. The emitted
// tuples themselves are arena-backed, so the arena is only released here —
// after the consumer above has closed and dropped its references.
func (s *seqScanOp) Close() error {
	s.pool.PutTuples(s.pending)
	s.pool.PutSel(s.sel)
	s.pending, s.sel, s.out.Tuples = nil, nil, nil
	s.chunk.reset()
	for i := range s.chunks {
		s.chunks[i].reset()
	}
	s.chunks = nil
	s.arena.release()
	return nil
}
func (s *seqScanOp) Telemetry() *OpTelemetry { return &s.tel }
func (s *seqScanOp) Schema() []string        { return s.schema[:] }

func (s *seqScanOp) recycle(p *BatchPool) {
	clear(s.cols)
	s.filter.reset()
	*s = seqScanOp{cols: s.cols[:0], filter: s.filter, arena: tupleArena{slabs: s.arena.slabs}, tel: OpTelemetry{charges: s.tel.charges[:0]}}
	p.ops[opSeqScan].Put(s)
}

// indexScanOp probes an equality index and streams the rows surviving the
// residual predicates.
type indexScanOp struct {
	e    *Executor
	q    *query.Query
	node *plan.Node
	pool *BatchPool

	ctx    context.Context
	schema [1]string
	rows   []int32
	cols   []*data.Column
	rest   []query.Pred
	filter blockFilter  // bf's storage, recompiled by every Open
	bf     *blockFilter // residual-filter kernels; nil under NoVec
	sel    []int32      // pooled selection vector

	arena tupleArena // slab storage behind emitted tuples
	chunk arenaChunk

	cursor int
	done   bool
	out    Batch
	tel    OpTelemetry
}

func (s *indexScanOp) Open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.ctx = ctx
	s.tel.Op = s.node.Op.String()
	s.tel.Node = s.node
	s.schema[0] = s.node.Alias
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
	if !s.e.NoVec {
		// An index scan's rows are a scattered posting list, so residual
		// predicates run refine kernels over it; zone-map pruning does not
		// apply (zero rows: no prune bitmap is built).
		s.bf = &s.filter
		s.bf.compile(s.cols, s.rest, 0)
	}
	if s.pool != nil {
		s.arena.pool = s.pool
		s.chunk.a = &s.arena
	}
	s.sel = s.pool.GetSel(0)
	s.out.Tuples = s.pool.GetTuples(0)
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
	s.out.Tuples = s.out.Tuples[:0]
	if s.bf != nil {
		// Vectorized residual filtering: copy a chunk of the posting list
		// into the reusable selection vector, refine it through every
		// conjunct, and materialize the survivors.
		for s.cursor < len(s.rows) && len(s.out.Tuples) < bs {
			if err := s.ctx.Err(); err != nil {
				return nil, err
			}
			take := bs - len(s.out.Tuples)
			if rem := len(s.rows) - s.cursor; take > rem {
				take = rem
			}
			s.sel = append(s.sel[:0], s.rows[s.cursor:s.cursor+take]...)
			s.out.Tuples = appendTuples(s.out.Tuples, s.bf.refineIDs(s.sel), &s.chunk)
			s.cursor += take
		}
	} else {
		for s.cursor < len(s.rows) && len(s.out.Tuples) < bs {
			if s.cursor%cancelCheckRows == 0 {
				if err := s.ctx.Err(); err != nil {
					return nil, err
				}
			}
			r := s.rows[s.cursor]
			s.cursor++
			if matchesAll(s.cols, s.rest, int(r)) {
				s.out.Tuples = append(s.out.Tuples, s.chunk.one(r))
			}
		}
	}
	if len(s.out.Tuples) == 0 {
		s.done = true
		s.tel.charges = append(s.tel.charges, float64(s.tel.RowsOut)*cOutput)
		s.node.TrueCard = float64(s.tel.RowsOut)
		return nil, nil
	}
	s.tel.RowsOut += int64(len(s.out.Tuples))
	s.tel.Batches++
	return &s.out, nil
}

// Close returns the pooled selection vector and output buffer and releases
// the arena. s.rows is the index's posting list, not ours to recycle.
func (s *indexScanOp) Close() error {
	s.pool.PutSel(s.sel)
	s.pool.PutTuples(s.out.Tuples)
	s.rows, s.sel, s.out.Tuples = nil, nil, nil
	s.chunk.reset()
	s.arena.release()
	return nil
}
func (s *indexScanOp) Telemetry() *OpTelemetry { return &s.tel }
func (s *indexScanOp) Schema() []string        { return s.schema[:] }

func (s *indexScanOp) recycle(p *BatchPool) {
	clear(s.cols)
	clear(s.rest)
	s.filter.reset()
	*s = indexScanOp{cols: s.cols[:0], rest: s.rest[:0], filter: s.filter, arena: tupleArena{slabs: s.arena.slabs}, tel: OpTelemetry{charges: s.tel.charges[:0]}}
	p.ops[opIndexScan].Put(s)
}

// emitPending slices the next batch-sized window out of a pending buffer
// without copying tuples, updating output telemetry.
func emitPending(pending *[][]int32, pendIdx *int, out *Batch, tel *OpTelemetry, batchSize int) *Batch {
	n := len(*pending) - *pendIdx
	if n > batchSize {
		n = batchSize
	}
	out.Tuples = (*pending)[*pendIdx : *pendIdx+n]
	*pendIdx += n
	tel.RowsOut += int64(n)
	tel.Batches++
	return out
}
