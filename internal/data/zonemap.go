// Zone maps and cached column statistics.
//
// A zone map summarizes a column as per-block min/max values over
// fixed-size row blocks. Scans consult it before touching the block's
// data: a block whose value range provably cannot satisfy a predicate is
// skipped without reading a single row. The summaries — like the cached
// whole-column MinMax — are built lazily on first use and
// invalidated by the Append* mutators, so repeated optimizer/statistics
// calls and every vectorized scan share one O(n) pass instead of
// rescanning the data each time.
//
// Concurrency: caches are published through atomic pointers. Concurrent
// readers may race to build the same cache; both compute the identical
// value (a pure function of the column contents) and the last store wins.
// Mutating a column concurrently with readers requires external
// synchronization, exactly as for the raw value slices.
package data

import "math"

// ZoneBlockSize is the number of rows summarized by one zone-map block.
// It matches the executor's default batch granularity: small enough that
// selective predicates on clustered columns skip most of a table, large
// enough that the per-block bookkeeping is negligible.
const ZoneBlockSize = 1024

// ZoneBlocks returns the number of zone-map blocks covering n rows.
func ZoneBlocks(n int) int {
	return (n + ZoneBlockSize - 1) / ZoneBlockSize
}

// ZoneMap holds per-block min/max summaries of one column. Int and
// dictionary-encoded String columns fill IntMin/IntMax (exact int64
// bounds); Float columns fill FltMin/FltMax over the block's comparable
// (non-NaN) values, with Empty marking blocks that have none.
type ZoneMap struct {
	NumBlocks int
	IntMin    []int64
	IntMax    []int64
	FltMin    []float64
	FltMax    []float64
	Empty     []bool
}

// minMaxCache is the memoized result of Column.MinMax.
type minMaxCache struct {
	lo, hi float64
	ok     bool
}

// Zones returns the column's zone map, building and caching it on first
// use. The returned map is immutable; Append* invalidates the cache.
func (c *Column) Zones() *ZoneMap {
	if zm := c.zones.Load(); zm != nil {
		return zm
	}
	zm := c.buildZones()
	c.zones.Store(zm)
	return zm
}

func (c *Column) buildZones() *ZoneMap {
	n := c.Len()
	nb := ZoneBlocks(n)
	zm := &ZoneMap{NumBlocks: nb}
	if c.Kind == Float {
		zm.FltMin = make([]float64, nb)
		zm.FltMax = make([]float64, nb)
		zm.Empty = make([]bool, nb)
		for b := 0; b < nb; b++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			seen := false
			end := (b + 1) * ZoneBlockSize
			if end > n {
				end = n
			}
			for _, v := range c.Flts[b*ZoneBlockSize : end] {
				if math.IsNaN(v) {
					continue
				}
				seen = true
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			zm.FltMin[b], zm.FltMax[b], zm.Empty[b] = lo, hi, !seen
		}
		return zm
	}
	zm.IntMin = make([]int64, nb)
	zm.IntMax = make([]int64, nb)
	for b := 0; b < nb; b++ {
		end := (b + 1) * ZoneBlockSize
		if end > n {
			end = n
		}
		blk := c.Ints[b*ZoneBlockSize : end]
		lo, hi := blk[0], blk[0]
		for _, v := range blk[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		zm.IntMin[b], zm.IntMax[b] = lo, hi
	}
	return zm
}

// invalidate drops every cached summary; called by the Append* mutators.
func (c *Column) invalidate() {
	c.zones.Store(nil)
	c.mm.Store(nil)
}
