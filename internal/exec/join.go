// Join operators. Equi-joins (hash, merge, nested-loop — all evaluated
// hash-based, each charged its own algorithm's work) materialize the
// build side by design and stream the probe side; cross products
// materialize both inputs (they are guarded by the intermediate cap) and
// stream their output.
//
// Build-side choice must match the reference evaluator exactly (build on
// the strictly smaller input, ties to the right) because it determines
// the output tuple order and therefore the bit pattern of float
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

// probeSegmentRows is how many probe tuples per worker a partitioned
// probe phase processes per fill step.
const probeSegmentRows = 4096

// keyCol resolves one side of a join condition: the tuple position of the
// alias and the joined column.
type keyCol struct {
	pos int
	col *data.Column
}

// keyColsFor appends to dst, for one side of a join, the (tuple position,
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

func compositeKey(t []int32, kcs []keyCol) uint64 {
	// FNV-1a over the key values; hash collisions are resolved by the
	// probe's keysEqual re-check.
	var h uint64 = 1469598103934665603
	for _, kc := range kcs {
		v := uint64(kc.col.Ints[t[kc.pos]])
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// keyGather is the typed key-extraction path for one side of a hash
// join: the key column's []int64 storage and tuple position are resolved
// once, so per-tuple extraction is a direct slice index instead of a
// per-row column dispatch. Single-column keys (the overwhelmingly common
// case) skip FNV mixing entirely — the raw int64 value is the table key,
// which is injective, so equal keys need no keysEqual re-check. Output is
// independent of the keying scheme either way: matches emit in build
// order, whatever the bucketing.
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

// key extracts one tuple's join key.
func (g *keyGather) key(t []int32) uint64 {
	if g.single {
		return uint64(g.ints[t[g.pos]])
	}
	return compositeKey(t, g.kcs)
}

// gather bulk-extracts the keys of tuples into dst (reused when its
// capacity suffices) — the one-pass typed key gather both the build and
// every probe buffer go through.
func (g *keyGather) gather(tuples [][]int32, dst []uint64) []uint64 {
	dst = slices.Grow(dst[:0], len(tuples))[:len(tuples)]
	if g.single {
		ints, pos := g.ints, g.pos
		for i, t := range tuples {
			dst[i] = uint64(ints[t[pos]])
		}
		return dst
	}
	for i, t := range tuples {
		dst[i] = compositeKey(t, g.kcs)
	}
	return dst
}

func keysEqual(lt []int32, lks []keyCol, rt []int32, rks []keyCol) bool {
	for i := range lks {
		if lks[i].col.Ints[lt[lks[i].pos]] != rks[i].col.Ints[rt[rks[i].pos]] {
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
	schema      []string
	pool        *BatchPool

	ctx      context.Context
	lks, rks []keyCol
	pg       keyGather

	started bool
	tab     joinTable // tab.build aliases bufLeft or bufRight

	probeBuf    [][]int32 // current probe tuples (buffered side or a streamed batch view)
	probeIdx    int
	probeStream bool // pull further probe batches from the left child

	// Owned pooled buffers. tab.build and probeBuf only ever alias these (or
	// a borrowed streamed batch), so Close returns exactly these and never a
	// child's buffer.
	bufLeft, bufRight [][]int32
	seg               [][]int32 // pooled probe-segment gather buffer
	pkeys             []uint64  // the serial probe's gathered keys of probeBuf (or of a short segment)

	arena  tupleArena // slab storage behind emitted output tuples
	chunk  arenaChunk // serial-path carving handle
	chunks []arenaChunk

	leftRows, rightRows int64
	probeChecked        int

	pending [][]int32 // pooled buffer of output tuples awaiting emission
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
	j.schema = concatSchema(j.schema[:0], ls, rs)
	var err error
	if j.lks, err = keyColsFor(j.lks[:0], j.e.Cat, j.q, ls, j.node.Cond, true); err != nil {
		return err
	}
	if j.rks, err = keyColsFor(j.rks[:0], j.e.Cat, j.q, rs, j.node.Cond, false); err != nil {
		return err
	}
	if j.pool != nil {
		j.arena.pool = j.pool
		j.chunk.a = &j.arena
	}
	j.pending = j.pool.GetTuples(0)
	j.seg = j.pool.GetTuples(0)
	j.bufLeft = j.pool.GetTuples(0)
	j.bufRight = j.pool.GetTuples(0)
	j.pkeys = j.pool.GetKeys(0)
	j.tel.charges = append(j.tel.charges, cStartup)
	return nil
}

// ensureChunks sizes the per-span carving handles for the partitioned
// probe; slab remainders persist across segments.
func (j *hashJoinOp) ensureChunks(n int) {
	if len(j.chunks) >= n {
		return
	}
	j.chunks = make([]arenaChunk, n)
	if j.pool != nil {
		for i := range j.chunks {
			j.chunks[i].a = &j.arena
		}
	}
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
		j.tel.RowsIn += int64(b.Len())
		j.bufRight = append(j.bufRight, b.Tuples...)
	}
	j.rightRows = int64(len(j.bufRight))

	leftDone := false
	for int64(len(j.bufLeft)) < j.rightRows {
		b, err := j.left.Next()
		if err != nil {
			return err
		}
		if b == nil {
			leftDone = true
			break
		}
		j.tel.RowsIn += int64(b.Len())
		j.bufLeft = append(j.bufLeft, b.Tuples...)
	}
	j.leftRows = int64(len(j.bufLeft))

	t := &j.tab
	if leftDone && j.leftRows < j.rightRows {
		// Left is strictly smaller: build on left, probe the materialized
		// right side.
		t.build, t.bks, t.pks = j.bufLeft, j.lks, j.rks
		j.probeBuf = j.bufRight
	} else {
		// Left is at least as large: build on right, probe the buffered
		// prefix and then stream the rest of the left side.
		t.buildIsRight = true
		t.build, t.bks, t.pks = j.bufRight, j.rks, j.lks
		j.probeBuf = j.bufLeft
		j.probeStream = !leftDone
	}
	bg := newKeyGather(t.bks)
	j.pg = newKeyGather(t.pks)
	// Bulk-gather the build keys in one typed pass, then thread the table.
	t.keys = bg.gather(t.build, j.pool.GetKeys(len(t.build)))
	return t.index(j.ctx, j.pool)
}

func (j *hashJoinOp) capErr() error {
	return fmt.Errorf("exec: join output exceeds intermediate cap (%d)", j.e.maxRows())
}

// pullProbe replaces the exhausted probe buffer with the left child's
// next batch; false once the probe side is exhausted.
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
	j.leftRows += int64(b.Len())
	j.tel.RowsIn += int64(b.Len())
	j.probeBuf, j.probeIdx = b.Tuples, 0
	return true, nil
}

// gatherSegment collects up to n probe tuples for a partitioned probe
// step into the reused pooled segment buffer, copying only tuple
// pointers — the pointers stay valid after the source batch's outer
// array is recycled by the producer's next pull.
func (j *hashJoinOp) gatherSegment(n int) ([][]int32, error) {
	seg := j.seg[:0]
	defer func() { j.seg = seg }()
	for len(seg) < n {
		if j.probeIdx < len(j.probeBuf) {
			take := len(j.probeBuf) - j.probeIdx
			if take > n-len(seg) {
				take = n - len(seg)
			}
			seg = append(seg, j.probeBuf[j.probeIdx:j.probeIdx+take]...)
			j.probeIdx += take
			continue
		}
		if ok, err := j.pullProbe(); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	return seg, nil
}

// probeSerial probes pts (keys pkeys) on the calling goroutine until
// pending holds stop tuples or pts is exhausted, one kernel call per
// cancellation interval, and returns the number of probe tuples consumed.
func (j *hashJoinOp) probeSerial(pts [][]int32, pkeys []uint64, stop, limit int) (int, error) {
	i := 0
	for i < len(pts) && len(j.pending) < stop {
		sinceCheck := j.probeChecked % cancelCheckRows
		if sinceCheck == 0 {
			if err := j.ctx.Err(); err != nil {
				return i, err
			}
		}
		hi := min(i+cancelCheckRows-sinceCheck, len(pts))
		before := len(j.pending)
		var n int
		// Stopping at the first tuple past the cap bounds what a runaway
		// probe materializes.
		j.pending, n = j.tab.probe(pts[i:hi], pkeys[i:hi], j.pending, &j.chunk, min(stop-1, limit-(j.emitted-before)))
		i += n
		j.probeChecked += n
		j.emitted += len(j.pending) - before
		if j.emitted > limit {
			return i, j.capErr()
		}
	}
	return i, nil
}

func (j *hashJoinOp) probeSegmentParallel(seg [][]int32, w, limit int) error {
	spans := splitSpans(len(seg), w)
	j.ensureChunks(len(spans))
	var exceeded atomic.Bool
	before := len(j.pending)
	var ok bool
	j.pending, ok = collectSpans(j.pool, spans, j.pending, func(si int, sp span, buf [][]int32) ([][]int32, bool) {
		pts := seg[sp.lo:sp.hi]
		pk := j.pg.gather(pts, j.pool.GetKeys(len(pts)))
		live := true
		for lo := 0; lo < len(pts) && live; lo += 1024 {
			hi := min(lo+1024, len(pts))
			buf, _ = j.tab.probe(pts[lo:hi], pk[lo:hi], buf, &j.chunks[si], limit)
			// A single partition past the cap already implies the total is
			// past it; bail early instead of materializing more.
			if len(buf) > limit {
				exceeded.Store(true)
				live = false
			} else if exceeded.Load() || j.ctx.Err() != nil {
				live = false
			}
		}
		j.pool.PutKeys(pk)
		return buf, live
	})
	if err := j.ctx.Err(); err != nil {
		return err
	}
	if exceeded.Load() {
		return j.capErr()
	}
	if !ok {
		// Neither canceled nor exceeded, yet a worker aborted: impossible
		// by construction, but fail closed rather than silently truncate.
		return j.capErr()
	}
	j.emitted += len(j.pending) - before
	if j.emitted > limit {
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
	for len(j.pending) < bs {
		if w > 1 {
			seg, err := j.gatherSegment(w * probeSegmentRows)
			if err != nil {
				return err
			}
			if len(seg) == 0 {
				return nil
			}
			if len(seg) >= parallelMinRows {
				err = j.probeSegmentParallel(seg, w, limit)
			} else {
				j.pkeys = j.pg.gather(seg, j.pkeys)
				_, err = j.probeSerial(seg, j.pkeys, math.MaxInt, limit)
			}
			if err != nil {
				return err
			}
			continue
		}
		if j.probeIdx == len(j.probeBuf) {
			if ok, err := j.pullProbe(); err != nil || !ok {
				return err
			}
			continue
		}
		if j.probeIdx == 0 {
			// First touch of this probe buffer: gather its keys once.
			j.pkeys = j.pg.gather(j.probeBuf, j.pkeys)
		}
		n, err := j.probeSerial(j.probeBuf[j.probeIdx:], j.pkeys[j.probeIdx:], bs, limit)
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
	if j.pendIdx == len(j.pending) {
		j.pending = j.pending[:0]
		j.pendIdx = 0
		if err := j.fill(); err != nil {
			return nil, err
		}
	}
	if len(j.pending) == 0 {
		j.finish()
		return nil, nil
	}
	return emitPending(&j.pending, &j.pendIdx, &j.out, &j.tel, j.e.batchSize()), nil
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
// pkeys and the table's heads/next/keys/filter — tab.build and probeBuf are
// aliases of these or of a borrowed streamed batch, never Put) and
// releases the output-tuple arena.
func (j *hashJoinOp) Close() error {
	j.pool.PutTuples(j.bufLeft)
	j.pool.PutTuples(j.bufRight)
	j.pool.PutTuples(j.seg)
	j.pool.PutTuples(j.pending)
	j.pool.PutKeys(j.pkeys)
	j.tab.release(j.pool)
	j.bufLeft, j.bufRight, j.seg, j.pkeys = nil, nil, nil, nil
	j.probeBuf, j.pending, j.out.Tuples = nil, nil, nil
	j.chunk.reset()
	for i := range j.chunks {
		j.chunks[i].reset()
	}
	j.chunks = nil
	j.arena.release()
	err := j.left.Close()
	if err2 := j.right.Close(); err == nil {
		err = err2
	}
	return err
}

func (j *hashJoinOp) Telemetry() *OpTelemetry { return &j.tel }
func (j *hashJoinOp) Schema() []string        { return j.schema }

func (j *hashJoinOp) recycle(p *BatchPool) {
	clear(j.schema)
	clear(j.lks)
	clear(j.rks)
	*j = hashJoinOp{schema: j.schema[:0], lks: j.lks[:0], rks: j.rks[:0], arena: tupleArena{slabs: j.arena.slabs}, tel: OpTelemetry{charges: j.tel.charges[:0]}}
	p.ops[opHashJoin].Put(j)
}

// crossJoinOp evaluates a condition-free nested-loop join. Both inputs
// materialize (the product is guarded by the intermediate cap before any
// output is produced); the quadratic output streams in batches.
type crossJoinOp struct {
	e           *Executor
	q           *query.Query
	node        *plan.Node
	left, right Operator
	schema      []string
	pool        *BatchPool

	ctx        context.Context
	started    bool
	lbuf, rbuf [][]int32 // pooled materialized inputs
	li, ri     int

	arena tupleArena // slab storage behind emitted output tuples
	chunk arenaChunk

	pending [][]int32
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
	c.schema = concatSchema(c.schema[:0], c.left.Schema(), c.right.Schema())
	if c.pool != nil {
		c.arena.pool = c.pool
		c.chunk.a = &c.arena
	}
	c.lbuf = c.pool.GetTuples(0)
	c.rbuf = c.pool.GetTuples(0)
	c.pending = c.pool.GetTuples(0)
	c.tel.charges = append(c.tel.charges, cStartup)
	return nil
}

func (c *crossJoinOp) start() error {
	for _, pull := range []Operator{c.left, c.right} {
		buf := &c.lbuf
		if pull == c.right {
			buf = &c.rbuf
		}
		for {
			b, err := pull.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			c.tel.RowsIn += int64(b.Len())
			*buf = append(*buf, b.Tuples...)
		}
	}
	if productExceeds(len(c.lbuf), len(c.rbuf), c.e.maxRows()) {
		return fmt.Errorf("exec: cross product of %d x %d exceeds intermediate cap", len(c.lbuf), len(c.rbuf))
	}
	return nil
}

func (c *crossJoinOp) fill() error {
	bs := c.e.batchSize()
	for len(c.pending) < bs && c.li < len(c.lbuf) {
		if c.ri == 0 && c.li%cancelCheckRows == 0 {
			if err := c.ctx.Err(); err != nil {
				return err
			}
		}
		lt := c.lbuf[c.li]
		for c.ri < len(c.rbuf) && len(c.pending) < bs {
			c.pending = append(c.pending, c.chunk.concat(lt, c.rbuf[c.ri]))
			c.ri++
			c.emitted++
		}
		if c.ri == len(c.rbuf) {
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
	if c.pendIdx == len(c.pending) {
		c.pending = c.pending[:0]
		c.pendIdx = 0
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
	if len(c.pending) == 0 {
		c.done = true
		nl, nr := float64(len(c.lbuf)), float64(len(c.rbuf))
		c.tel.charges = append(c.tel.charges, nl*nr*cNLCompare, float64(c.emitted)*cOutput)
		c.tel.tuplesJoined = int64(c.emitted)
		c.node.TrueCard = float64(c.emitted)
		return nil, nil
	}
	return emitPending(&c.pending, &c.pendIdx, &c.out, &c.tel, c.e.batchSize()), nil
}

func (c *crossJoinOp) Close() error {
	c.pool.PutTuples(c.lbuf)
	c.pool.PutTuples(c.rbuf)
	c.pool.PutTuples(c.pending)
	c.lbuf, c.rbuf, c.pending, c.out.Tuples = nil, nil, nil, nil
	c.chunk.reset()
	c.arena.release()
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
	*c = crossJoinOp{schema: c.schema[:0], arena: tupleArena{slabs: c.arena.slabs}, tel: OpTelemetry{charges: c.tel.charges[:0]}}
	p.ops[opCrossJoin].Put(c)
}
