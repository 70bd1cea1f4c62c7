// Join-table equivalence tests: the flat chained table and its batch
// probe kernel against a map[uint64][]int32 oracle — the shape of the
// reference evaluator's join — asserting the *sequence* of (probe, build)
// pairs, because output order is part of the executor's byte-identity
// contract.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lqo/internal/data"
)

// joinCase is one build/probe input pair. Each side is a list of key
// columns (one column exercises the single-key fast path); row i of a side
// has row id i in its one batch column.
type joinCase struct {
	build, probe [][]int64
	// bkeys/pkeys forge the hashed keys; nil gathers them like the operator.
	// Forging lets a test put unequal rows under one key (an FNV
	// collision) or aim every key at one bucket.
	bkeys, pkeys []uint64
}

// sideOf wraps key columns as a one-column batch and its keyCols.
func sideOf(cols [][]int64) ([][]int32, []keyCol) {
	kcs := make([]keyCol, len(cols))
	for i, c := range cols {
		kcs[i] = keyCol{pos: 0, col: &data.Column{Name: fmt.Sprint("k", i), Kind: data.Int, Ints: c}}
	}
	ids := make([]int32, len(cols[0]))
	for i := range ids {
		ids[i] = int32(i)
	}
	return [][]int32{ids}, kcs
}

// checkJoinCase indexes c's build side from pool and probes it at several
// stop thresholds, comparing the emitted (probe, build) pair sequence and
// the consumed counts with the map oracle.
func checkJoinCase(tb testing.TB, pool *BatchPool, c joinCase) {
	tb.Helper()
	bt, bks := sideOf(c.build)
	pt, pks := sideOf(c.probe)
	np := len(c.probe[0])
	bg, pg := newKeyGather(bks), newKeyGather(pks)
	bkeys, pkeys := c.bkeys, c.pkeys
	if bkeys == nil {
		bkeys = bg.gather(bt, 0, len(c.build[0]), nil)
	}
	if pkeys == nil {
		pkeys = pg.gather(pt, 0, np, nil)
	}

	ht := make(map[uint64][]int32)
	for i, k := range bkeys {
		ht[k] = append(ht[k], int32(i))
	}
	var want [][2]int32            // (probe row, build row) in emission order
	fan := make([]int, len(pkeys)) // matches per probe row
	for i, k := range pkeys {
		for _, bi := range ht[k] {
			if keysEqual(pt, int32(i), pks, bt, bi, bks) {
				want = append(want, [2]int32{int32(i), bi})
				fan[i]++
			}
		}
	}

	tab := joinTable{build: bt, bks: bks, pks: pks}
	tab.keys = append(pool.GetKeys(len(bkeys)), bkeys...)
	if err := tab.index(context.Background(), pool); err != nil {
		tb.Fatal(err)
	}
	// The last two thresholds land past the kernel's first candidate
	// block on long probe sides.
	for _, stop := range []int{1, 3, max((len(want)+1)/2, 1), max(len(want), 1), math.MaxInt} {
		var got [][2]int32
		for i := 0; i < np; {
			pidx, bidx, n := tab.probe(pt, i, pkeys[i:], nil, nil, stop-1)
			if n < 1 || i+n > np {
				tb.Fatalf("stop=%d: probe consumed %d of %d rows", stop, n, np-i)
			}
			before := 0
			for _, f := range fan[i : i+n-1] {
				before += f
			}
			if len(pidx) != len(bidx) || before >= stop || (i+n < np && len(bidx) < stop) {
				tb.Fatalf("stop=%d: probe returned after %d rows with %d/%d matches (%d before the last)", stop, n, len(pidx), len(bidx), before)
			}
			for k := range bidx {
				got = append(got, [2]int32{pidx[k], bidx[k]})
			}
			i += n
		}
		if len(got) != len(want) {
			tb.Fatalf("stop=%d: %d matches, oracle %d", stop, len(got), len(want))
		}
		for j, w := range want {
			if got[j] != w {
				tb.Fatalf("stop=%d: match %d is %v, oracle (probe %d, build %d)", stop, j, got[j], w[0], w[1])
			}
		}
	}
	tab.release(pool)
	tab.release(pool) // idempotent
	if n := pool.InUse(); n != 0 {
		tb.Fatalf("%d pooled buffers outstanding after release", n)
	}
	if mis := pool.Misuse(); len(mis) != 0 {
		tb.Fatalf("pool contract violations: %v", mis)
	}
}

// randCol draws n keys from a domain of d values around base.
func randCol(rng *rand.Rand, n, d int, base int64) []int64 {
	c := make([]int64, n)
	for i := range c {
		c[i] = base + int64(rng.Intn(d))
	}
	return c
}

// hashMulInv is hashMul's inverse modulo 2^64 (Newton iteration doubles
// the correct low bits each step): key j*hashMulInv hashes to j, whose top
// bits are zero for small j — bucket 0 at every table size.
func hashMulInv() uint64 {
	inv := uint64(hashMul)
	for i := 0; i < 6; i++ {
		inv *= 2 - hashMul*inv
	}
	return inv
}

func TestJoinTableMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pool := NewDebugBatchPool()

	t.Run("sizes", func(t *testing.T) {
		// Build sizes straddling powers of two, duplicates on both sides.
		// The large case first, so every later table reuses the larger
		// pooled buffers with their stale contents.
		for _, n := range []int{1025, 0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 1023, 1024} {
			d := max(n/2, 1)
			checkJoinCase(t, pool, joinCase{build: [][]int64{randCol(rng, n, d, 0)}, probe: [][]int64{randCol(rng, 2*n+3, d+2, -1)}})
		}
	})

	t.Run("extreme keys", func(t *testing.T) {
		// Negative, > 2^53 (not float64-exact) and boundary int64 keys.
		vals := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 53, -(1 << 53) - 1, -1, 0, 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxInt64 - 1, math.MaxInt64}
		pick := func(n int) []int64 {
			c := make([]int64, n)
			for i := range c {
				c[i] = vals[rng.Intn(len(vals))]
			}
			return c
		}
		checkJoinCase(t, pool, joinCase{build: [][]int64{pick(40)}, probe: [][]int64{pick(90)}})
	})

	t.Run("one bucket", func(t *testing.T) {
		inv := int64(hashMulInv())
		mk := func(n, d int) []int64 {
			c := make([]int64, n)
			for i := range c {
				c[i] = int64(rng.Intn(d)) * inv
			}
			return c
		}
		build := mk(200, 64)
		tab := joinTable{keys: make([]uint64, len(build))}
		for i, v := range build {
			tab.keys[i] = uint64(v)
		}
		if err := tab.index(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		for b, h := range tab.heads[1:] {
			if h != 0 {
				t.Fatalf("bucket %d is occupied; the keys were meant to share bucket 0", b+1)
			}
		}
		checkJoinCase(t, pool, joinCase{build: [][]int64{build}, probe: [][]int64{mk(300, 80)}})
	})

	t.Run("one-word filter", func(t *testing.T) {
		// Builds of 0-9 keys: up to 8 the filter is a single word, partly
		// unused. Probe sides span several candidate blocks.
		for n := 0; n <= 9; n++ {
			checkJoinCase(t, pool, joinCase{build: [][]int64{randCol(rng, n, n+1, 0)}, probe: [][]int64{randCol(rng, 600, n+3, -1)}})
		}
	})

	t.Run("leading misses", func(t *testing.T) {
		// 320 probe tuples miss before the first match: whole candidate
		// blocks come out empty and the first emission is deep in block 2.
		probe := append(randCol(rng, 320, 50, -100), randCol(rng, 200, 60, 0)...)
		checkJoinCase(t, pool, joinCase{build: [][]int64{randCol(rng, 100, 50, 0)}, probe: [][]int64{probe}})
	})

	t.Run("filter false positives", func(t *testing.T) {
		// Keys forged through hashMulInv have chosen hashes. A 64-key build
		// has 64 buckets (the hash's top 6 bits) and 512 filter bits (its
		// top 9). The build fills buckets 0-3 under filter sub-bits 0-1;
		// each probe key matches, shares a bucket and filter bit with a build
		// key without being one, or shares only the bucket.
		inv := hashMulInv()
		key := func(bucket, sub, low uint64) int64 { return int64((bucket<<58 | sub<<55 | low) * inv) }
		var build, probe []int64
		for j := uint64(0); j < 64; j++ {
			build = append(build, key(j%4, j%2, j))
		}
		tab := joinTable{keys: make([]uint64, len(build))}
		for i, v := range build {
			tab.keys[i] = uint64(v)
		}
		if err := tab.index(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		isSet := func(k int64) bool {
			f := uint64(k) * hashMul >> tab.shift
			return tab.filter[f>>6]>>(f&63)&1 != 0
		}
		for i := 0; i < 400; i++ {
			j := uint64(rng.Intn(64))
			var k int64
			switch rng.Intn(3) {
			case 0:
				k = build[j]
			case 1:
				if k = key(j%4, j%2, 64+j); !isSet(k) {
					t.Fatalf("probe key %x should pass the filter", k)
				}
			default:
				if k = key(j%4, 2+j%6, j); isSet(k) {
					t.Fatalf("probe key %x should fail the filter", k)
				}
			}
			probe = append(probe, k)
		}
		checkJoinCase(t, pool, joinCase{build: [][]int64{build}, probe: [][]int64{probe}})
	})

	t.Run("composite", func(t *testing.T) {
		checkJoinCase(t, pool, joinCase{
			build: [][]int64{randCol(rng, 300, 6, -2), randCol(rng, 300, 5, 1<<53)},
			probe: [][]int64{randCol(rng, 500, 7, -2), randCol(rng, 500, 6, 1<<53)},
		})
	})

	t.Run("forced FNV collisions", func(t *testing.T) {
		// Every tuple on both sides carries one of two forged hashes, so most
		// equal-hash pairs are unequal tuples keysEqual must reject.
		forge := func(n int) []uint64 {
			k := make([]uint64, n)
			for i := range k {
				k[i] = 7 + uint64(i%2)
			}
			return k
		}
		checkJoinCase(t, pool, joinCase{
			build: [][]int64{randCol(rng, 120, 4, 0), randCol(rng, 120, 3, 0)},
			probe: [][]int64{randCol(rng, 200, 4, 0), randCol(rng, 200, 3, 0)},
			bkeys: forge(120), pkeys: forge(200),
		})
	})
}

// TestJoinTableCancelMidBuild: a build canceled at any of its cooperative
// checks returns the error with all four buffers still owned, and release
// hands them back.
func TestJoinTableCancelMidBuild(t *testing.T) {
	n := 3*cancelCheckRows + 17
	keys := make([]uint64, n)
	for after := int64(0); after < 4; after++ {
		pool := NewDebugBatchPool()
		ctx := newCancelAfter(after)
		tab := joinTable{keys: append(pool.GetKeys(n), keys...)}
		if err := tab.index(ctx, pool); !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: index err = %v, want Canceled", after, err)
		}
		if pool.InUse() != 4 {
			t.Fatalf("after=%d: %d buffers live at the canceled build, want heads+next+keys+filter", after, pool.InUse())
		}
		tab.release(pool)
		if pool.InUse() != 0 || len(pool.Misuse()) != 0 {
			t.Fatalf("after=%d: InUse %d, misuse %v after release", after, pool.InUse(), pool.Misuse())
		}
	}
}

// FuzzJoinTable drives checkJoinCase from raw bytes: the first byte picks
// the shape, the rest become small-domain keys split between the sides.
func FuzzJoinTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 2, 3, 1})
	f.Add([]byte{1, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{2, 0, 255, 0, 255, 7, 7})
	f.Add([]byte{3})
	long := make([]byte, 900)
	for i := range long {
		long[i] = byte(i * 7 % 13)
	}
	long[0] = 4
	f.Add(long)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 4096 {
			return
		}
		shape, body := in[0], in[1:]
		nb := len(body) / 3
		col := func(b []byte, shift uint) []int64 {
			c := make([]int64, len(b))
			for i, v := range b {
				c[i] = int64(v>>shift) - 3
			}
			return c
		}
		c := joinCase{build: [][]int64{col(body[:nb], 0)}, probe: [][]int64{col(body[nb:], 0)}}
		if shape&3 != 0 { // composite keys
			c.build = append(c.build, col(body[:nb], 4))
			c.probe = append(c.probe, col(body[nb:], 4))
		}
		if shape&2 != 0 { // forged composite hashes: a handful, shared by unequal tuples
			c.bkeys, c.pkeys = make([]uint64, nb), make([]uint64, len(body)-nb)
			for i := range c.bkeys {
				c.bkeys[i] = uint64(body[i] % 3)
			}
			for i := range c.pkeys {
				c.pkeys[i] = uint64(body[nb+i] % 3)
			}
		}
		if shape&4 != 0 {
			// Keys through hashMulInv hash to small ints (or, negative, to
			// near 2^64): a few buckets and filter bits hold long chains.
			inv := hashMulInv()
			for _, side := range [][][]int64{c.build, c.probe} {
				for _, col := range side {
					for i := range col {
						col[i] *= int64(inv)
					}
				}
			}
			for _, ks := range [][]uint64{c.bkeys, c.pkeys} {
				for i := range ks {
					ks[i] *= inv
				}
			}
		}
		checkJoinCase(t, NewDebugBatchPool(), c)
	})
}
