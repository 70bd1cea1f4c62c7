// Join operators. Equi-joins (hash, merge, nested-loop — all evaluated
// hash-based, each charged its own algorithm's work) materialize the
// build side by design and stream the probe side; cross products
// materialize both inputs (they are guarded by the intermediate cap) and
// stream their output.
//
// Build-side choice must match the reference evaluator exactly (build on
// the strictly smaller input, ties to the right) because it determines
// the output row order and therefore the bit pattern of float
// aggregates. The right child is drained first as the build candidate;
// the left child is buffered only until it provably reaches the right
// side's size — from then on it streams through the probe without
// materialization. Left-deep pipelines (the common optimizer output)
// therefore never materialize the big accumulated intermediate.
package exec

import (
	"context"
	"fmt"
	"slices"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// keyCol resolves one side of a join condition: the position of the alias
// in the side's schema (its batch column, or tuple position in the
// reference evaluator) and the joined column.
type keyCol struct {
	pos int
	col *data.Column
}

// keyColsFor appends to dst, for one side of a join, the (schema position,
// column) pairs supplying the composite key, given the side's alias
// layout (schemas hold at most query.MaxRefs aliases, so positions
// resolve by linear scan).
func keyColsFor(dst []keyCol, cat *data.Catalog, q *query.Query, schema []string, conds []query.Join, leftSide bool) ([]keyCol, error) {
	for _, j := range conds {
		alias, col := j.LeftAlias, j.LeftCol
		other, otherCol := j.RightAlias, j.RightCol
		if !leftSide {
			alias, col, other, otherCol = other, otherCol, alias, col
		}
		// The condition may be written with sides swapped relative to the
		// plan's children; normalize by membership.
		p := slices.Index(schema, alias)
		if p < 0 {
			alias, col = other, otherCol
			if p = slices.Index(schema, alias); p < 0 {
				return nil, fmt.Errorf("exec: join condition %s references alias outside both inputs", j)
			}
		}
		tbl := cat.Table(q.TableOf(alias))
		if tbl == nil {
			return nil, fmt.Errorf("exec: unknown table for alias %q", alias)
		}
		c := tbl.Column(col)
		if c == nil {
			return nil, fmt.Errorf("exec: unknown join column %s.%s", alias, col)
		}
		if c.Kind == data.Float {
			return nil, fmt.Errorf("exec: equi-join on float column unsupported")
		}
		dst = append(dst, keyCol{pos: p, col: c})
	}
	return dst, nil
}

// compositeKey hashes the key columns of row row, mixing in each
// column's value a word at a time (one multiply and one xor-shift), with
// collisions resolved by the probe's keysEqual re-check.
func compositeKey(cols [][]int32, row int, kcs []keyCol) uint64 {
	var h uint64
	for _, kc := range kcs {
		h = (h ^ uint64(kc.col.Ints[cols[kc.pos][row]])) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// keyGather is the typed key-extraction path for one side of a hash
// join: the key column's []int64 storage and batch column are resolved
// once, so extraction is a sequential pass over one row-id vector instead
// of a per-row column dispatch. Single-column keys (the overwhelmingly
// common case) skip the mixing entirely — the raw int64 value is the table
// key, which is injective, so equal keys need no keysEqual re-check.
// Output is independent of the keying scheme either way: matches emit in
// build order, whatever the bucketing.
type keyGather struct {
	single bool
	pos    int
	ints   []int64
	kcs    []keyCol
}

func newKeyGather(kcs []keyCol) keyGather {
	if len(kcs) == 1 {
		return keyGather{single: true, pos: kcs[0].pos, ints: kcs[0].col.Ints, kcs: kcs}
	}
	return keyGather{kcs: kcs}
}

// gather extracts the keys of rows [lo, hi) of cols into dst (reused
// when its capacity suffices) — the one typed key gather both the build
// and every probe buffer go through.
func (g *keyGather) gather(cols [][]int32, lo, hi int, dst []uint64) []uint64 {
	dst = slices.Grow(dst[:0], hi-lo)[:hi-lo]
	if g.single {
		ints := g.ints
		for i, r := range cols[g.pos][lo:hi] {
			dst[i] = uint64(ints[r])
		}
		return dst
	}
	for i := range dst {
		dst[i] = compositeKey(cols, lo+i, g.kcs)
	}
	return dst
}

// keysEqual reports whether probe row pi of pcols and build row bi of
// bcols agree on every key column.
func keysEqual(pcols [][]int32, pi int32, pks []keyCol, bcols [][]int32, bi int32, bks []keyCol) bool {
	for k := range pks {
		if pks[k].col.Ints[pcols[pks[k].pos][pi]] != bks[k].col.Ints[bcols[bks[k].pos][bi]] {
			return false
		}
	}
	return true
}

// joinBase is what both join operators share: the plan node and its
// inputs, the output layout, the pending output and the telemetry.
type joinBase struct {
	e           *Executor
	node        *plan.Node
	left, right Operator
	pool        *BatchPool
	need        []string // aliases the consumer reads

	ctx     context.Context
	schema  []string
	srcs    []colSrc // where each output column comes from
	started bool
	pending Batch // output columns awaiting emission; N counts them when there are none
	pendIdx int
	emitted int
	done    bool
	out     Batch
	tel     OpTelemetry
}

// joinPhases are a join's own steps, which joinBase.next drives.
type joinPhases interface {
	start() error // consume the inputs up to the first output
	fill() error  // refill pending, leaving it empty once exhausted
	finish()      // charge the algorithm's work
}

// open is both joins' Open prologue: it opens the inputs and lays out the
// output, returning the inputs' schemas.
func (b *joinBase) open(ctx context.Context) (ls, rs []string, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	b.ctx = ctx
	b.tel.Op = b.node.Op.String()
	b.tel.Node = b.node
	if err := b.left.Open(ctx); err != nil {
		return nil, nil, err
	}
	if err := b.right.Open(ctx); err != nil {
		return nil, nil, err
	}
	ls, rs = b.left.Schema(), b.right.Schema()
	b.schema, b.srcs = joinSchema(b.schema[:0], b.srcs[:0], ls, rs, b.need)
	b.pending.alloc(b.pool, len(b.schema))
	b.tel.charges = append(b.tel.charges, cStartup)
	return ls, rs, nil
}

// next is both joins' Next, running their phases ph.
func (b *joinBase) next(ph joinPhases) (*Batch, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	if b.done {
		return nil, nil
	}
	if !b.started {
		b.started = true
		if err := ph.start(); err != nil {
			return nil, err
		}
	}
	if b.pendIdx == b.pending.N {
		b.pending.truncate()
		b.pendIdx = 0
		if err := ph.fill(); err != nil {
			return nil, err
		}
	}
	if b.pending.N == 0 {
		b.done = true
		ph.finish()
		return nil, nil
	}
	return emit(&b.pending, &b.pendIdx, &b.out, len(b.schema), &b.tel, b.e.batchSize()), nil
}

// close is both joins' Close epilogue: it returns pending and closes the
// inputs.
func (b *joinBase) close() error {
	b.pending.free(b.pool)
	b.out.forget()
	err := b.left.Close()
	if err2 := b.right.Close(); err == nil {
		err = err2
	}
	return err
}

func (b *joinBase) Telemetry() *OpTelemetry { return &b.tel }
func (b *joinBase) Schema() []string        { return b.schema }

// recycled is the base emptied for the pool, keeping buffer capacity.
func (b *joinBase) recycled() joinBase {
	clear(b.schema)
	return joinBase{schema: b.schema[:0], srcs: b.srcs[:0], pending: b.pending, out: b.out, tel: OpTelemetry{charges: b.tel.charges[:0]}}
}

// hashJoinOp evaluates an equi-join hash-based (whatever the plan
// operator, which determines only the charged work), materializing the
// build side and streaming the probe side.
type hashJoinOp struct {
	joinBase
	q         *query.Query
	childNeed []string // aliases both inputs are asked for: need plus the condition's
	lks, rks  []keyCol
	pg        keyGather

	buildIsRight bool
	tab          joinTable // tab.build is bufLeft's or bufRight's columns

	probe       Batch // current probe rows: a materialized side or a streamed batch view
	probeIdx    int
	probeStream bool // pull further probe batches from the left child

	// Owned pooled buffers: the materialized inputs, the gathered probe
	// keys and the match index vectors (probe row, build row). tab.build
	// and probe only ever alias these or a borrowed streamed batch, so
	// Close returns exactly these.
	bufLeft, bufRight Batch
	pkeys             []uint64
	match             [2][]int32

	leftRows, rightRows int64
	probeChecked        int
}

func (j *hashJoinOp) Open(ctx context.Context) error {
	ls, rs, err := j.open(ctx)
	if err != nil {
		return err
	}
	if j.lks, err = keyColsFor(j.lks[:0], j.e.Cat, j.q, ls, j.node.Cond, true); err != nil {
		return err
	}
	if j.rks, err = keyColsFor(j.rks[:0], j.e.Cat, j.q, rs, j.node.Cond, false); err != nil {
		return err
	}
	j.bufLeft.alloc(j.pool, len(ls))
	j.bufRight.alloc(j.pool, len(rs))
	j.pkeys = j.pool.GetKeys(0)
	j.match[0], j.match[1] = j.pool.GetSel(0), j.pool.GetSel(0)
	return nil
}

// start runs the build phase: drain the right child (the build
// candidate), buffer the left prefix until the build side is decided, and
// build the hash table.
func (j *hashJoinOp) start() error {
	for {
		b, err := j.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		j.tel.RowsIn += int64(b.N)
		j.bufRight.appendRows(b, 0, b.N)
	}
	j.rightRows = int64(j.bufRight.N)

	leftDone := false
	for int64(j.bufLeft.N) < j.rightRows {
		b, err := j.left.Next()
		if err != nil {
			return err
		}
		if b == nil {
			leftDone = true
			break
		}
		j.tel.RowsIn += int64(b.N)
		j.bufLeft.appendRows(b, 0, b.N)
	}
	j.leftRows = int64(j.bufLeft.N)

	t := &j.tab
	build := &j.bufRight
	if leftDone && j.leftRows < j.rightRows {
		// Left is strictly smaller: build on left, probe the materialized
		// right side.
		build, j.probe = &j.bufLeft, j.bufRight
		t.bks, t.pks = j.lks, j.rks
	} else {
		// Left is at least as large: build on right, probe the buffered
		// prefix and then stream the rest of the left side.
		j.buildIsRight = true
		j.probe = j.bufLeft
		t.bks, t.pks = j.rks, j.lks
		j.probeStream = !leftDone
	}
	t.build = build.Cols
	bg := newKeyGather(t.bks)
	j.pg = newKeyGather(t.pks)
	// Bulk-gather the build keys in one typed pass, then thread the table.
	t.keys = bg.gather(build.Cols, 0, build.N, j.pool.GetKeys(build.N))
	return t.index(j.ctx, j.pool)
}

func (j *hashJoinOp) capErr() error {
	return fmt.Errorf("exec: join output exceeds intermediate cap (%d)", j.e.maxRows())
}

// pullProbe replaces the exhausted probe rows with the left child's next
// batch; false once the probe side is exhausted.
func (j *hashJoinOp) pullProbe() (bool, error) {
	if !j.probeStream {
		return false, nil
	}
	b, err := j.left.Next()
	if err != nil {
		return false, err
	}
	if b == nil {
		j.probeStream = false
		return false, nil
	}
	j.leftRows += int64(b.N)
	j.tel.RowsIn += int64(b.N)
	j.probe, j.probeIdx = *b, 0
	return true, nil
}

// emitMatches gathers the output columns of the matched (probe, build)
// row pairs in j.match onto pending.
func (j *hashJoinOp) emitMatches() {
	pidx, bidx := j.match[0], j.match[1]
	for c, src := range j.srcs {
		if src.left == j.buildIsRight {
			j.pending.Cols[c] = gatherRows(j.pending.Cols[c], j.probe.Cols[src.pos], pidx)
		} else {
			j.pending.Cols[c] = gatherRows(j.pending.Cols[c], j.tab.build[src.pos], bidx)
		}
	}
	j.pending.N += len(bidx)
	j.emitted += len(bidx)
}

// fill refills pending with at least one batch of output, or leaves it
// empty when the probe side is exhausted. It probes one kernel call per
// cancellation interval.
func (j *hashJoinOp) fill() error {
	bs := j.e.batchSize()
	limit := j.e.maxRows()
	for j.pending.N < bs {
		if j.probeIdx == j.probe.N {
			if ok, err := j.pullProbe(); err != nil || !ok {
				return err
			}
			continue
		}
		if j.probeIdx == 0 {
			// First touch of these probe rows: gather their keys once.
			j.pkeys = j.pg.gather(j.probe.Cols, 0, j.probe.N, j.pkeys)
		}
		sinceCheck := j.probeChecked % cancelCheckRows
		if sinceCheck == 0 {
			if err := j.ctx.Err(); err != nil {
				return err
			}
		}
		hi := min(j.probeIdx+cancelCheckRows-sinceCheck, j.probe.N)
		var n int
		// Stopping at the first row past the cap bounds what a runaway
		// probe materializes.
		j.match[0], j.match[1], n = j.tab.probe(j.probe.Cols, j.probeIdx, j.pkeys[j.probeIdx:hi], j.match[0][:0], j.match[1][:0], min(bs-1-j.pending.N, limit-j.emitted))
		j.probeIdx += n
		j.probeChecked += n
		j.emitMatches()
		if j.emitted > limit {
			return j.capErr()
		}
	}
	return nil
}

func (j *hashJoinOp) Next() (*Batch, error) { return j.next(j) }

func (j *hashJoinOp) finish() {
	nl, nr := float64(j.leftRows), float64(j.rightRows)
	var op float64
	switch j.node.Op {
	case plan.HashJoin:
		op = nr*cHashBuild + nl*cHashProbe
	case plan.MergeJoin:
		op = cSortUnit * (nlogn(nl) + nlogn(nr))
	default: // NestedLoopJoin with equi-conditions
		op = nl * nr * cNLCompare
	}
	j.tel.charges = append(j.tel.charges, op, float64(j.emitted)*cOutput)
	j.tel.tuplesJoined = int64(j.emitted)
}

// Close returns the owned pooled buffers (bufLeft/bufRight/pending/
// pkeys/match and the table's heads/next/keys/filter — tab.build and
// probe are aliases of these or of a borrowed streamed batch, never Put).
func (j *hashJoinOp) Close() error {
	j.bufLeft.free(j.pool)
	j.bufRight.free(j.pool)
	j.pool.PutKeys(j.pkeys)
	j.pool.PutSel(j.match[0])
	j.pool.PutSel(j.match[1])
	j.tab.release(j.pool)
	j.pkeys, j.match, j.probe = nil, [2][]int32{}, Batch{}
	return j.close()
}

func (j *hashJoinOp) recycle(p *BatchPool) {
	clear(j.childNeed)
	clear(j.lks)
	clear(j.rks)
	*j = hashJoinOp{
		joinBase: j.recycled(), childNeed: j.childNeed[:0], lks: j.lks[:0], rks: j.rks[:0],
		bufLeft: j.bufLeft, bufRight: j.bufRight,
	}
	p.ops[opHashJoin].Put(j)
}

// crossJoinOp evaluates a condition-free nested-loop join. Both inputs
// materialize (the product is guarded by the intermediate cap before any
// output is produced); the quadratic output streams in batches. Its
// inputs are asked for need alone.
type crossJoinOp struct {
	joinBase
	lbuf, rbuf Batch // pooled materialized inputs
	li, ri     int
}

func (c *crossJoinOp) Open(ctx context.Context) error {
	ls, rs, err := c.open(ctx)
	if err != nil {
		return err
	}
	c.lbuf.alloc(c.pool, len(ls))
	c.rbuf.alloc(c.pool, len(rs))
	return nil
}

func (c *crossJoinOp) start() error {
	for _, in := range [2]struct {
		op  Operator
		buf *Batch
	}{{c.left, &c.lbuf}, {c.right, &c.rbuf}} {
		for {
			b, err := in.op.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			c.tel.RowsIn += int64(b.N)
			in.buf.appendRows(b, 0, b.N)
		}
	}
	if productExceeds(c.lbuf.N, c.rbuf.N, c.e.maxRows()) {
		return fmt.Errorf("exec: cross product of %d x %d exceeds intermediate cap", c.lbuf.N, c.rbuf.N)
	}
	return nil
}

// fill appends pairs (li, ri), (li, ri+1), … in row-major order until
// pending holds a batch: a left column repeats its row id, a right column
// copies a run.
func (c *crossJoinOp) fill() error {
	bs := c.e.batchSize()
	for c.pending.N < bs && c.li < c.lbuf.N {
		if c.ri == 0 && c.li%cancelCheckRows == 0 {
			if err := c.ctx.Err(); err != nil {
				return err
			}
		}
		take := min(c.rbuf.N-c.ri, bs-c.pending.N)
		for k, src := range c.srcs {
			col := c.pending.Cols[k]
			if src.left {
				id := c.lbuf.Cols[src.pos][c.li]
				for range take {
					col = append(col, id)
				}
			} else {
				col = append(col, c.rbuf.Cols[src.pos][c.ri:c.ri+take]...)
			}
			c.pending.Cols[k] = col
		}
		c.pending.N += take
		c.ri += take
		c.emitted += take
		if c.ri == c.rbuf.N {
			c.ri = 0
			c.li++
		}
	}
	return nil
}

func (c *crossJoinOp) Next() (*Batch, error) { return c.next(c) }

func (c *crossJoinOp) finish() {
	nl, nr := float64(c.lbuf.N), float64(c.rbuf.N)
	c.tel.charges = append(c.tel.charges, nl*nr*cNLCompare, float64(c.emitted)*cOutput)
	c.tel.tuplesJoined = int64(c.emitted)
}

func (c *crossJoinOp) Close() error {
	c.lbuf.free(c.pool)
	c.rbuf.free(c.pool)
	return c.close()
}

func (c *crossJoinOp) recycle(p *BatchPool) {
	*c = crossJoinOp{joinBase: c.recycled(), lbuf: c.lbuf, rbuf: c.rbuf}
	p.ops[opCrossJoin].Put(c)
}
