// Micro-benchmarks for the vectorized filter kernels (a full scan, and the
// kernel alone vs. the scalar matchesAll loop), the typed join-key gather
// vs. per-row FNV mixing, and the hash-join table's batch probe.
//
//	go test ./internal/exec/ -bench 'Filter|KeyGather|HashJoinProbe' -benchmem -run xx
package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

const benchRows = 1 << 20 // 1M rows, 1024 zone blocks

// benchCatalog builds a single 1M-row table with a clustered sequential
// id column (zone maps prune almost everything for selective ranges) and
// an unclustered val column (zone maps prune nothing).
func benchCatalog() (*data.Catalog, *query.Query) {
	id := &data.Column{Name: "id", Kind: data.Int}
	val := &data.Column{Name: "val", Kind: data.Int}
	for i := 0; i < benchRows; i++ {
		id.Ints = append(id.Ints, int64(i))
		val.Ints = append(val.Ints, int64(i*2654435761%1000))
	}
	cat := data.NewCatalog()
	cat.Add(data.NewTable("t", id, val))
	q := &query.Query{
		Refs: []query.TableRef{{Alias: "t", Table: "t"}},
		Preds: []query.Pred{{
			Alias: "t", Column: "id", Op: query.Between,
			Val: data.IntVal(benchRows / 2), Val2: data.IntVal(benchRows/2 + benchRows/100),
		}},
	}
	return cat, q
}

func BenchmarkFilterScanVec(b *testing.B) {
	cat, q := benchCatalog()
	ex := New(cat)
	p, err := CanonicalPlan(q)
	if err != nil {
		b.Fatal(err)
	}
	want, err := ex.RunCtx(context.Background(), q, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ex.RunCtx(context.Background(), q, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != want.Count {
			b.Fatalf("count drifted: %d != %d", res.Count, want.Count)
		}
	}
}

// benchKernelOnly isolates the filter kernel from plan/operator overhead:
// one blockFilter pass over the table vs. the scalar row loop.
func BenchmarkFilterKernelVec(b *testing.B) {
	cat, q := benchCatalog()
	cols := []*data.Column{cat.Table("t").Column("id")}
	bf := newBlockFilter(cols, q.Preds, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	var sel []int32
	for i := 0; i < b.N; i++ {
		sel, _, _ = bf.filterBlocks(context.Background(), 0, benchRows, benchRows, sel[:0])
	}
}

func BenchmarkFilterKernelScalar(b *testing.B) {
	cat, q := benchCatalog()
	cols := []*data.Column{cat.Table("t").Column("id")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out []int32
		for r := 0; r < benchRows; r++ {
			if matchesAll(cols, q.Preds, r) {
				out = append(out, int32(r))
			}
		}
		_ = out
	}
}

// Key-extraction benchmarks: the typed single-column gather (raw int64
// map keys) vs. the compositeKey path multi-column join keys take, over a
// 1M-row build batch of one or two key columns.
func benchKeyBatch(ncols int) ([][]int32, []keyCol) {
	ids := make([]int32, benchRows)
	for i := range ids {
		ids[i] = int32(i)
	}
	var cols [][]int32
	var kcs []keyCol
	for k := 0; k < ncols; k++ {
		c := &data.Column{Name: fmt.Sprintf("k%d", k), Kind: data.Int}
		for i := 0; i < benchRows; i++ {
			c.Ints = append(c.Ints, int64(i%(65536>>k)))
		}
		cols = append(cols, ids)
		kcs = append(kcs, keyCol{pos: k, col: c})
	}
	return cols, kcs
}

func BenchmarkKeyGatherTyped(b *testing.B) {
	cols, kcs := benchKeyBatch(1)
	g := newKeyGather(kcs)
	var dst []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.gather(cols, 0, benchRows, dst)
	}
	_ = dst
}

// BenchmarkKeyGatherComposite is compositeKey per row over one key
// column and over two, the shape of a composite join key.
func BenchmarkKeyGatherComposite(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("cols=%d", n), func(b *testing.B) {
			cols, kcs := benchKeyBatch(n)
			dst := make([]uint64, 0, benchRows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = dst[:0]
				for r := 0; r < benchRows; r++ {
					dst = append(dst, compositeKey(cols, r, kcs))
				}
			}
			_ = dst
		})
	}
}

// BenchmarkHashJoinProbe times the join kernel alone: key gather plus
// joinTable.probe of 64k probe rows per op against an indexed build side
// of distinct keys, by build size (cache-resident to not) and by the share
// of probe rows that find their one match (10 % is the regime the
// exec_heavy workload runs in: 6.7 % of its probe rows match). Each grid
// cell gathers both input columns of every match, as a join whose
// consumer reads both sides does; the count-only cell gathers none, as
// the root join of a COUNT(*) plan. Every batch's output is dead before
// the next, so the vectors are reused and the steady state allocates
// nothing.
func BenchmarkHashJoinProbe(b *testing.B) {
	const nProbe = 1 << 16
	type cell struct {
		name      string
		n, match  int
		countOnly bool
	}
	var cells []cell
	for _, size := range []struct {
		name string
		n    int
	}{{"16", 16}, {"1k", 1 << 10}, {"64k", 1 << 16}} {
		for _, match := range []int{1, 10, 50, 100} {
			cells = append(cells, cell{fmt.Sprintf("build=%s/match=%d%%", size.name, match), size.n, match, false})
		}
	}
	cells = append(cells, cell{"build=1k/match=10%/count-only", 1 << 10, 10, true})
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(15))
			// One key column serves both sides: rows [0, n) are the build
			// side (a permutation of 0..n-1), the rest the probe side.
			col := &data.Column{Name: "k", Kind: data.Int}
			for _, k := range rng.Perm(c.n) {
				col.Ints = append(col.Ints, int64(k))
			}
			for i := 0; i < nProbe; i++ {
				k := int64(rng.Intn(c.n))
				if rng.Intn(100) >= c.match {
					k = -1 - k
				}
				col.Ints = append(col.Ints, k)
			}
			ids := make([]int32, c.n+nProbe)
			for i := range ids {
				ids[i] = int32(i)
			}
			build, probe := [][]int32{ids[:c.n]}, [][]int32{ids[c.n:]}
			kcs := []keyCol{{pos: 0, col: col}}
			g := newKeyGather(kcs)
			pool := NewBatchPool()
			tab := joinTable{build: build, bks: kcs, pks: kcs}
			tab.keys = g.gather(build, 0, c.n, pool.GetKeys(c.n))
			if err := tab.index(context.Background(), pool); err != nil {
				b.Fatal(err)
			}
			pkeys := pool.GetKeys(nProbe)
			pidx, bidx, outP, outB := pool.GetSel(0), pool.GetSel(0), pool.GetSel(0), pool.GetSel(0)
			emitted := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkeys = g.gather(probe, 0, nProbe, pkeys)
				for lo := 0; lo < nProbe; lo += DefaultBatchSize {
					pidx, bidx, _ = tab.probe(probe, lo, pkeys[lo:lo+DefaultBatchSize], pidx[:0], bidx[:0], math.MaxInt)
					if !c.countOnly {
						outP = gatherRows(outP[:0], probe[0], pidx)
						outB = gatherRows(outB[:0], build[0], bidx)
					}
					emitted += len(bidx)
				}
			}
			b.StopTimer()
			if want := b.N * nProbe * c.match / 100; emitted < want*9/10 || emitted > want*11/10+nProbe/50 {
				b.Fatalf("emitted %d matches, expected about %d", emitted, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nProbe), "ns/probe-row")
			tab.release(pool)
			pool.PutKeys(pkeys)
			for _, v := range [][]int32{pidx, bidx, outP, outB} {
				pool.PutSel(v)
			}
		})
	}
}
