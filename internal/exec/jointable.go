// The hash join's build-side index and probe kernel.
//
// joinTable is a flat chained hash table over the build rows: a
// power-of-two array of bucket heads, one successor link per build row,
// the build keys gathered by keyGather and an occupancy filter of 8 bits
// per bucket, all pooled buffers held from the build to the operator's
// Close. Chains are threaded in ascending build index — inserting in
// descending order makes every new head the smallest index so far —
// because that is the order `map[key] → []int32{indices appended in build
// order}` yields in the reference evaluator: it fixes the output row
// order and with it the bit pattern of float aggregates.
//
// Buckets come from a multiply-shift hash (the top bits of key × an odd
// 64-bit constant): single-column keys are raw int64 ids, typically dense
// and sequential, which the golden-ratio multiplier spreads evenly where a
// low-bits mask would pile strided ids into few buckets.
//
// The probe is two-pass because most probe rows miss: a branch-free pass
// keeps those whose filter bit is set, and only they walk a chain. A
// one-pass walk pays two data-dependent branches per row (empty bucket?
// key equal?), close to coin flips at a load factor in (½, 1] even when
// the table is L1-resident; a clear filter bit answers both for most
// misses. Matches come out as two index vectors — probe row, build row —
// from which the operator gathers only the columns its consumer reads.
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
	// so a cleared heads array is an empty table. Pooled as row-id
	// vectors, whose stale (or debug-poisoned) contents the build overwrites
	// in full.
	heads, next []int32
	keys        []uint64 // build keys by build index, pooled key scratch
	// filter has bit h>>shift set for every build key's hash h, whose top
	// bits are its bucket: a clear bit means an empty chain. Key scratch.
	filter []uint64
	shift  uint // 64 - log2(len(heads)) - 3: h>>shift is the filter bit, >>3 more the bucket

	build    [][]int32 // build-side columns, borrowed from the operator
	bks, pks []keyCol  // build- and probe-side key columns
}

// probeBlock is the probe kernel's candidate-pass width.
const probeBlock = 256

// index threads t.keys (already gathered, owned by t from here on) into
// the bucket chains and the filter, checking ctx every cancelCheckRows
// inserts. On error the buffers stay owned; release returns them.
func (t *joinTable) index(ctx context.Context, pool *BatchPool) error {
	n := len(t.keys)
	lg := 0
	if n > 1 {
		lg = bits.Len(uint(n - 1))
	}
	nb := 1 << lg
	nw := max(nb/8, 1)
	t.shift = uint(64 - lg - 3)
	t.heads = slices.Grow(pool.GetSel(nb), nb)[:nb]
	t.next = slices.Grow(pool.GetSel(n), n)[:n]
	t.filter = slices.Grow(pool.GetKeys(nw), nw)[:nw]
	clear(t.heads)
	clear(t.filter)
	for i := n - 1; i >= 0; i-- {
		if i%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		f := t.keys[i] * hashMul >> t.shift
		t.filter[f>>6] |= 1 << (f & 63)
		t.next[i] = t.heads[f>>3]
		t.heads[f>>3] = int32(i + 1)
	}
	return nil
}

// probe appends to pidx and bidx the matches of probe rows base,
// base+1, … of pcols, whose gathered keys are pkeys: per probe row in
// order, its matching build rows in ascending index, as (probe row, build
// row) pairs. It returns after the probe row that brings len(bidx) past
// most, with the number of probe rows consumed; callers pass len(bidx) <=
// most. Per block of probeBlock rows it lists the candidates, loads all
// their bucket heads (independent loads that overlap on a cache-missing
// table), then walks their chains in order. Its scratch is on the stack,
// so concurrent probes of one table share none.
func (t *joinTable) probe(pcols [][]int32, base int, pkeys []uint64, pidx, bidx []int32, most int) ([]int32, []int32, int) {
	heads, next, keys, shift := t.heads, t.next, t.keys, t.shift
	// A single-column key is the raw value, so equal keys are equal rows;
	// composite keys are FNV hashes and still need the column-wise check.
	composite := len(t.bks) > 1
	var cand, head [probeBlock]int32
	for lo := 0; lo < len(pkeys); lo += probeBlock {
		cs := cand[:t.candidates(&cand, pkeys, lo, min(lo+probeBlock, len(pkeys)))]
		for j, i := range cs {
			head[j] = heads[pkeys[i]*hashMul>>shift>>3]
		}
		for j, i := range cs {
			k, p := pkeys[i], int32(base)+i
			for e := head[j]; e != 0; e = next[e-1] {
				if keys[e-1] != k {
					continue
				}
				if composite && !keysEqual(pcols, p, t.pks, t.build, e-1, t.bks) {
					continue
				}
				pidx, bidx = append(pidx, p), append(bidx, e-1)
			}
			if len(bidx) > most {
				return pidx, bidx, int(i) + 1
			}
		}
	}
	return pidx, bidx, len(pkeys)
}

// candidates stores in cand, ascending, the indices in [lo, hi) (at most
// probeBlock) of the pkeys whose filter bit is set, and returns their
// count. Branch-free: every index is stored, the count advances by the
// bit; n <= i-lo, so the mask and shift&63 only spare checks. Out of line
// so n and i stay in registers: inlined into probe, both spilled.
//
//go:noinline
func (t *joinTable) candidates(cand *[probeBlock]int32, pkeys []uint64, lo, hi int) int {
	filter, shift := t.filter, t.shift&63
	n := 0
	for i := lo; i < hi; i++ {
		f := pkeys[i] * hashMul >> shift
		cand[n&(probeBlock-1)] = int32(i)
		n += int(filter[f>>6] >> (f & 63) & 1)
	}
	return n
}

// release returns the table's buffers to pool and empties the table.
// Idempotent, and a no-op on a table that was never indexed.
func (t *joinTable) release(pool *BatchPool) {
	pool.PutSel(t.heads)
	pool.PutSel(t.next)
	pool.PutKeys(t.keys)
	pool.PutKeys(t.filter)
	*t = joinTable{}
}
