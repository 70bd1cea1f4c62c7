// The hash join's build-side index and probe kernel.
//
// joinTable is a flat chained hash table over the build tuples: a
// power-of-two array of bucket heads, one successor link per build tuple
// and the build keys gathered by keyGather, all pooled buffers held from
// the build to the operator's Close. Chains are threaded in ascending
// build index — inserting in descending order makes every new head the
// smallest index so far — because that is the order `map[key] →
// []int32{indices appended in build order}` yields in the reference
// evaluator: it fixes the output tuple order and with it the bit pattern
// of float aggregates.
//
// Buckets come from a multiply-shift hash (the top bits of key × an odd
// 64-bit constant): single-column keys are raw int64 ids, typically dense
// and sequential, which the golden-ratio multiplier spreads evenly where a
// low-bits mask would pile strided ids into few buckets.
package exec

import (
	"context"
	"math/bits"
	"slices"
)

// hashMul is 2^64 / φ, the Fibonacci-hashing multiplier.
const hashMul = 0x9E3779B97F4A7C15

type joinTable struct {
	// heads[b] and next[i] hold build indices plus one; zero ends a chain,
	// so a cleared heads array is an empty table. Pooled as selection
	// vectors, whose stale (or debug-poisoned) contents the build overwrites
	// in full.
	heads, next []int32
	keys        []uint64 // build keys by build index, pooled key scratch
	shift       uint     // 64 - log2(len(heads))

	build        [][]int32 // build tuples, borrowed from the operator
	bks, pks     []keyCol  // build- and probe-side key columns
	buildIsRight bool      // output orientation: probe tuple first
}

// index threads t.keys (already gathered, owned by t from here on) into
// the bucket chains, checking ctx every cancelCheckRows inserts. On error
// the buffers stay owned; release returns them.
func (t *joinTable) index(ctx context.Context, pool *BatchPool) error {
	n := len(t.keys)
	lg := 0
	if n > 1 {
		lg = bits.Len(uint(n - 1))
	}
	nb := 1 << lg
	t.shift = uint(64 - lg)
	t.heads = slices.Grow(pool.GetSel(nb), nb)[:nb]
	t.next = slices.Grow(pool.GetSel(n), n)[:n]
	clear(t.heads)
	for i := n - 1; i >= 0; i-- {
		if i%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		b := t.keys[i] * hashMul >> t.shift
		t.next[i] = t.heads[b]
		t.heads[b] = int32(i + 1)
	}
	return nil
}

// probe appends to buf the join output of pts in probe order, each probe
// tuple's matches in ascending build index, left tuple first; pkeys[i] is
// pts[i]'s gathered key. It returns after the probe tuple that brings
// len(buf) past most, with the number of probe tuples consumed.
func (t *joinTable) probe(pts [][]int32, pkeys []uint64, buf [][]int32, c *arenaChunk, most int) ([][]int32, int) {
	heads, next, keys, build, shift := t.heads, t.next, t.keys, t.build, t.shift
	// A single-column key is the raw value, so equal keys are equal tuples;
	// composite keys are FNV hashes and still need the column-wise check.
	composite := len(t.bks) > 1
	for i, pt := range pts {
		k := pkeys[i]
		for e := heads[k*hashMul>>shift]; e != 0; e = next[e-1] {
			if keys[e-1] != k {
				continue
			}
			bt := build[e-1]
			if composite && !keysEqual(pt, t.pks, bt, t.bks) {
				continue
			}
			if t.buildIsRight {
				buf = append(buf, c.concat(pt, bt))
			} else {
				buf = append(buf, c.concat(bt, pt))
			}
		}
		if len(buf) > most {
			return buf, i + 1
		}
	}
	return buf, len(pts)
}

// release returns the table's buffers to pool and empties the table.
// Idempotent, and a no-op on a table that was never indexed.
func (t *joinTable) release(pool *BatchPool) {
	pool.PutSel(t.heads)
	pool.PutSel(t.next)
	pool.PutKeys(t.keys)
	*t = joinTable{}
}
