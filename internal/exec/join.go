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
	"math"
	"slices"
	"sync/atomic"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// probeSegmentRows is how many probe rows per worker a partitioned
// probe phase processes per fill step.
const probeSegmentRows = 4096

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

// compositeKey hashes the key columns of row row: FNV-1a over the key
// values, collisions resolved by the probe's keysEqual re-check.
func compositeKey(cols [][]int32, row int, kcs []keyCol) uint64 {
	var h uint64 = 1469598103934665603
	for _, kc := range kcs {
		v := uint64(kc.col.Ints[cols[kc.pos][row]])
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// keyGather is the typed key-extraction path for one side of a hash
// join: the key column's []int64 storage and batch column are resolved
// once, so extraction is a sequential pass over one row-id vector instead
// of a per-row column dispatch. Single-column keys (the overwhelmingly
// common case) skip FNV mixing entirely — the raw int64 value is the table
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

// hashJoinOp evaluates an equi-join hash-based (whatever the plan
// operator, which determines only the charged work), materializing the
// build side and streaming the probe side.
type hashJoinOp struct {
	e           *Executor
	q           *query.Query
	node        *plan.Node
	left, right Operator
	pool        *BatchPool
	need        []string // aliases the consumer reads
	childNeed   []string // aliases both inputs are asked for: need plus the condition's

	ctx      context.Context
	schema   []string
	srcs     []colSrc // where each output column comes from
	lks, rks []keyCol
	pg       keyGather

	started      bool
	buildIsRight bool
	tab          joinTable // tab.build is bufLeft's or bufRight's columns

	probe       Batch // current probe rows: a materialized side or a streamed batch view
	probeIdx    int
	probeStream bool // pull further probe batches from the left child

	// Owned pooled buffers: the materialized inputs, the parallel probe's
	// segment copy, the gathered probe keys and the match index vectors
	// (probe row, build row). tab.build and probe only ever alias these or
	// a borrowed streamed batch, so Close returns exactly these.
	bufLeft, bufRight Batch
	seg               Batch
	pkeys             []uint64
	match             [2][]int32
	parts             [][]int32 // per-span match vectors of the parallel probe

	leftRows, rightRows int64
	probeChecked        int

	pending Batch // output columns awaiting emission; N counts them when there are none
	pendIdx int
	emitted int
	done    bool
	out     Batch
	tel     OpTelemetry
}

func (j *hashJoinOp) Open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j.ctx = ctx
	j.tel.Op = j.node.Op.String()
	j.tel.Node = j.node
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	ls, rs := j.left.Schema(), j.right.Schema()
	j.schema, j.srcs = joinSchema(j.schema[:0], j.srcs[:0], ls, rs, j.need)
	var err error
	if j.lks, err = keyColsFor(j.lks[:0], j.e.Cat, j.q, ls, j.node.Cond, true); err != nil {
		return err
	}
	if j.rks, err = keyColsFor(j.rks[:0], j.e.Cat, j.q, rs, j.node.Cond, false); err != nil {
		return err
	}
	j.bufLeft.alloc(j.pool, len(ls))
	j.bufRight.alloc(j.pool, len(rs))
	j.pending.alloc(j.pool, len(j.schema))
	j.pkeys = j.pool.GetKeys(0)
	j.match[0], j.match[1] = j.pool.GetSel(0), j.pool.GetSel(0)
	j.tel.charges = append(j.tel.charges, cStartup)
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
	if j.e.workers() > 1 {
		j.seg.alloc(j.pool, len(j.probe.Cols))
	}
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

// gatherSegment copies up to n probe rows for a partitioned probe step
// into the pooled segment buffer, so they outlive the pulls that produced
// them.
func (j *hashJoinOp) gatherSegment(n int) error {
	j.seg.truncate()
	for j.seg.N < n {
		if j.probeIdx < j.probe.N {
			take := min(j.probe.N-j.probeIdx, n-j.seg.N)
			j.seg.appendRows(&j.probe, j.probeIdx, j.probeIdx+take)
			j.probeIdx += take
			continue
		}
		if ok, err := j.pullProbe(); err != nil || !ok {
			return err
		}
	}
	return nil
}

// emitMatches gathers the output columns of the matched (probe, build)
// row pairs in j.match, whose probe rows index p, onto pending.
func (j *hashJoinOp) emitMatches(p *Batch) {
	pidx, bidx := j.match[0], j.match[1]
	for c, src := range j.srcs {
		if src.left == j.buildIsRight {
			j.pending.Cols[c] = gatherRows(j.pending.Cols[c], p.Cols[src.pos], pidx)
		} else {
			j.pending.Cols[c] = gatherRows(j.pending.Cols[c], j.tab.build[src.pos], bidx)
		}
	}
	j.pending.N += len(bidx)
	j.emitted += len(bidx)
}

// probeSerial probes rows lo, lo+1, … of p (keys pkeys) on the calling
// goroutine until pending holds stop rows or pkeys is exhausted, one
// kernel call per cancellation interval, and returns the number of probe
// rows consumed.
func (j *hashJoinOp) probeSerial(p *Batch, lo int, pkeys []uint64, stop, limit int) (int, error) {
	i := 0
	for i < len(pkeys) && j.pending.N < stop {
		sinceCheck := j.probeChecked % cancelCheckRows
		if sinceCheck == 0 {
			if err := j.ctx.Err(); err != nil {
				return i, err
			}
		}
		hi := min(i+cancelCheckRows-sinceCheck, len(pkeys))
		var n int
		// Stopping at the first row past the cap bounds what a runaway
		// probe materializes.
		j.match[0], j.match[1], n = j.tab.probe(p.Cols, lo+i, pkeys[i:hi], j.match[0][:0], j.match[1][:0], min(stop-1-j.pending.N, limit-j.emitted))
		i += n
		j.probeChecked += n
		j.emitMatches(p)
		if j.emitted > limit {
			return i, j.capErr()
		}
	}
	return i, nil
}

func (j *hashJoinOp) probeSegmentParallel(w, limit int) error {
	seg := &j.seg
	var exceeded atomic.Bool
	j.match[0], j.match[1] = j.match[0][:0], j.match[1][:0]
	ok := collectSpans(j.pool, splitSpans(seg.N, w), j.match[:], &j.parts, func(_ int, sp span, out [][]int32) bool {
		pk := j.pg.gather(seg.Cols, sp.lo, sp.hi, j.pool.GetKeys(sp.hi-sp.lo))
		live := true
		for lo := 0; lo < len(pk) && live; lo += 1024 {
			hi := min(lo+1024, len(pk))
			out[0], out[1], _ = j.tab.probe(seg.Cols, sp.lo+lo, pk[lo:hi], out[0], out[1], limit)
			// A single partition past the cap already implies the total is
			// past it; bail early instead of materializing more.
			if len(out[1]) > limit {
				exceeded.Store(true)
				live = false
			} else if exceeded.Load() || j.ctx.Err() != nil {
				live = false
			}
		}
		j.pool.PutKeys(pk)
		return live
	})
	if err := j.ctx.Err(); err != nil {
		return err
	}
	if exceeded.Load() || !ok {
		// !ok with neither cancellation nor the cap is impossible by
		// construction, but fails closed rather than silently truncates.
		return j.capErr()
	}
	if j.emitMatches(seg); j.emitted > limit {
		return j.capErr()
	}
	return nil
}

// fill refills pending with at least one batch of output, or leaves it
// empty when the probe side is exhausted.
func (j *hashJoinOp) fill() error {
	bs := j.e.batchSize()
	limit := j.e.maxRows()
	w := j.e.workers()
	for j.pending.N < bs {
		if w > 1 {
			if err := j.gatherSegment(w * probeSegmentRows); err != nil {
				return err
			}
			var err error
			switch {
			case j.seg.N == 0:
				return nil
			case j.seg.N >= parallelMinRows:
				err = j.probeSegmentParallel(w, limit)
			default:
				j.pkeys = j.pg.gather(j.seg.Cols, 0, j.seg.N, j.pkeys)
				_, err = j.probeSerial(&j.seg, 0, j.pkeys, math.MaxInt, limit)
			}
			if err != nil {
				return err
			}
			continue
		}
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
		n, err := j.probeSerial(&j.probe, j.probeIdx, j.pkeys[j.probeIdx:j.probe.N], bs, limit)
		j.probeIdx += n
		if err != nil {
			return err
		}
	}
	return nil
}

func (j *hashJoinOp) Next() (*Batch, error) {
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	if j.done {
		return nil, nil
	}
	if !j.started {
		j.started = true
		if err := j.start(); err != nil {
			return nil, err
		}
	}
	if j.pendIdx == j.pending.N {
		j.pending.truncate()
		j.pendIdx = 0
		if err := j.fill(); err != nil {
			return nil, err
		}
	}
	if j.pending.N == 0 {
		j.finish()
		return nil, nil
	}
	return emit(&j.pending, &j.pendIdx, &j.out, len(j.schema), &j.tel, j.e.batchSize()), nil
}

func (j *hashJoinOp) finish() {
	j.done = true
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
	j.node.TrueCard = float64(j.emitted)
}

// Close returns the owned pooled buffers (bufLeft/bufRight/seg/pending/
// pkeys/match and the table's heads/next/keys/filter — tab.build and
// probe are aliases of these or of a borrowed streamed batch, never Put).
func (j *hashJoinOp) Close() error {
	j.bufLeft.free(j.pool)
	j.bufRight.free(j.pool)
	j.seg.free(j.pool)
	j.pending.free(j.pool)
	j.pool.PutKeys(j.pkeys)
	j.pool.PutSel(j.match[0])
	j.pool.PutSel(j.match[1])
	j.tab.release(j.pool)
	j.pkeys, j.match, j.probe = nil, [2][]int32{}, Batch{}
	j.out.forget()
	err := j.left.Close()
	if err2 := j.right.Close(); err == nil {
		err = err2
	}
	return err
}

func (j *hashJoinOp) Telemetry() *OpTelemetry { return &j.tel }
func (j *hashJoinOp) Schema() []string        { return j.schema }

func (j *hashJoinOp) recycle(p *BatchPool) {
	clear(j.childNeed)
	clear(j.schema)
	clear(j.lks)
	clear(j.rks)
	*j = hashJoinOp{
		childNeed: j.childNeed[:0], schema: j.schema[:0], srcs: j.srcs[:0], lks: j.lks[:0], rks: j.rks[:0],
		bufLeft: j.bufLeft, bufRight: j.bufRight, seg: j.seg, pending: j.pending, out: j.out, parts: j.parts[:0],
		tel: OpTelemetry{charges: j.tel.charges[:0]},
	}
	p.ops[opHashJoin].Put(j)
}

// crossJoinOp evaluates a condition-free nested-loop join. Both inputs
// materialize (the product is guarded by the intermediate cap before any
// output is produced); the quadratic output streams in batches.
type crossJoinOp struct {
	e           *Executor
	node        *plan.Node
	left, right Operator
	pool        *BatchPool
	need        []string // aliases the consumer reads, and all its inputs are asked for

	ctx        context.Context
	schema     []string
	srcs       []colSrc
	started    bool
	lbuf, rbuf Batch // pooled materialized inputs
	li, ri     int

	pending Batch
	pendIdx int
	emitted int
	done    bool
	out     Batch
	tel     OpTelemetry
}

func (c *crossJoinOp) Open(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.ctx = ctx
	c.tel.Op = c.node.Op.String()
	c.tel.Node = c.node
	if err := c.left.Open(ctx); err != nil {
		return err
	}
	if err := c.right.Open(ctx); err != nil {
		return err
	}
	ls, rs := c.left.Schema(), c.right.Schema()
	c.schema, c.srcs = joinSchema(c.schema[:0], c.srcs[:0], ls, rs, c.need)
	c.lbuf.alloc(c.pool, len(ls))
	c.rbuf.alloc(c.pool, len(rs))
	c.pending.alloc(c.pool, len(c.schema))
	c.tel.charges = append(c.tel.charges, cStartup)
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

func (c *crossJoinOp) Next() (*Batch, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	if c.done {
		return nil, nil
	}
	if !c.started {
		c.started = true
		if err := c.start(); err != nil {
			return nil, err
		}
	}
	if c.pendIdx == c.pending.N {
		c.pending.truncate()
		c.pendIdx = 0
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
	if c.pending.N == 0 {
		c.done = true
		nl, nr := float64(c.lbuf.N), float64(c.rbuf.N)
		c.tel.charges = append(c.tel.charges, nl*nr*cNLCompare, float64(c.emitted)*cOutput)
		c.tel.tuplesJoined = int64(c.emitted)
		c.node.TrueCard = float64(c.emitted)
		return nil, nil
	}
	return emit(&c.pending, &c.pendIdx, &c.out, len(c.schema), &c.tel, c.e.batchSize()), nil
}

func (c *crossJoinOp) Close() error {
	c.lbuf.free(c.pool)
	c.rbuf.free(c.pool)
	c.pending.free(c.pool)
	c.out.forget()
	err := c.left.Close()
	if err2 := c.right.Close(); err == nil {
		err = err2
	}
	return err
}

func (c *crossJoinOp) Telemetry() *OpTelemetry { return &c.tel }
func (c *crossJoinOp) Schema() []string        { return c.schema }

func (c *crossJoinOp) recycle(p *BatchPool) {
	clear(c.schema)
	*c = crossJoinOp{
		schema: c.schema[:0], srcs: c.srcs[:0],
		lbuf: c.lbuf, rbuf: c.rbuf, pending: c.pending, out: c.out,
		tel: OpTelemetry{charges: c.tel.charges[:0]},
	}
	p.ops[opCrossJoin].Put(c)
}
