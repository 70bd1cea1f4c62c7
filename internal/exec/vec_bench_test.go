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
	"lqo/internal/plan"
	"lqo/internal/query"
)

const benchRows = 1 << 20 // 1M rows, 1024 zone blocks

// benchCatalog builds a single 1M-row table with a clustered sequential
// id column (zone maps prune almost everything for selective ranges) and
// an unclustered val column of uniform draws from [0, 1000) (zone maps
// prune nothing). The draws are pseudo-random: an arithmetic sequence
// such as i·c mod 1000 is periodic enough for a branch predictor to
// learn, which would hide the mispredicts a real column costs.
func benchCatalog() (*data.Catalog, *query.Query) {
	id := &data.Column{Name: "id", Kind: data.Int}
	val := &data.Column{Name: "val", Kind: data.Int}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < benchRows; i++ {
		id.Ints = append(id.Ints, int64(i))
		val.Ints = append(val.Ints, int64(rng.Intn(1000)))
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

// BenchmarkFilterKernelVec isolates the filter kernels from plan and
// operator overhead: one blockFilter pass over the 1M-row table, a batch
// of selected row ids at a time, as a scan takes them. The id cell is a
// 1 % range over the clustered column, where zone maps prune all but a
// few blocks, so it mostly times pruning. The val cells run the kernels
// over every block of the unclustered column at about 10, 50 and 90 %
// selectivity, where a loop that branched on each comparison would
// mispredict most at 50 %; the refine cell keeps 90 % with its first
// conjunct and refines that to 50 %.
func BenchmarkFilterKernelVec(b *testing.B) {
	cat, q := benchCatalog()
	t := cat.Table("t")
	onVal := func(op query.CmpOp, a, z int64) query.Pred {
		return query.Pred{Alias: "t", Column: "val", Op: op, Val: data.IntVal(a), Val2: data.IntVal(z)}
	}
	type cell struct {
		name  string
		preds []query.Pred
	}
	cells := []cell{{"id/between/1%", q.Preds}}
	for _, pct := range []int64{10, 50, 90} {
		cells = append(cells,
			cell{fmt.Sprintf("val/lt/%d%%", pct), []query.Pred{onVal(query.Lt, pct*10, 0)}},
			cell{fmt.Sprintf("val/between/%d%%", pct), []query.Pred{onVal(query.Between, 500-pct*5, 500+pct*5-1)}})
	}
	cells = append(cells, cell{"val/refine/90%-then-50%", []query.Pred{onVal(query.Lt, 900, 0), onVal(query.Ge, 400, 0)}})
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			cols, err := bindPredCols(nil, t, c.preds)
			if err != nil {
				b.Fatal(err)
			}
			bf := newBlockFilter(cols, c.preds, benchRows)
			var sel []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < benchRows; {
					sel, lo, _ = bf.filterBlocks(context.Background(), lo, benchRows, DefaultBatchSize, sel[:0])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
		})
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

// BenchmarkHashJoinProbe times the join kernel, and a whole join run
// over a predicate-free scan streamed and probed through its index.
//
// The kernel cells (build=…/match=…) time key gather plus
// joinTable.probe of 64k probe rows per op against an indexed build side
// of distinct keys, by build size (cache-resident to not) and by the share
// of probe rows that find their one match (10 % is the regime the
// exec_heavy workload runs in: 6.7 % of its probe rows match). Each grid
// point has two cells. The plain one lists every match and gathers both
// input columns, as a join whose consumer reads both sides does; the
// /count one runs joinTable.count, as the root join of a COUNT(*) plan,
// which lists nothing. Every batch's output is dead before the next, so
// the vectors are reused and the steady state allocates nothing.
//
// The scan cells (scan=N/build=b/…) run a COUNT(*) hash join of an N-row
// predicate-free scan, indexed on its key, with a b-row build (see
// scanJoinCells): `index` probes only the scan rows the build keys name,
// `streamed` is the same table without the index. The grid at b = N/k
// for k in 2…32 is where indexProbeRatio comes from; scan=6000/build=90
// is the exec_heavy workload's typical join.
func BenchmarkHashJoinProbe(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, k := range []int{2, 4, 8, 16, 32} {
			scanJoinCells(b, n, n/k)
		}
	}
	scanJoinCells(b, 6000, 90)
	const nProbe = 1 << 16
	type cell struct {
		name     string
		n, match int
		count    bool
	}
	var cells []cell
	for _, size := range []struct {
		name string
		n    int
	}{{"16", 16}, {"1k", 1 << 10}, {"64k", 1 << 16}} {
		for _, match := range []int{1, 10, 50, 100} {
			name := fmt.Sprintf("build=%s/match=%d%%", size.name, match)
			cells = append(cells, cell{name, size.n, match, false}, cell{name + "/count", size.n, match, true})
		}
	}
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
					if c.count {
						m, _ := tab.count(probe, lo, pkeys[lo:lo+DefaultBatchSize], math.MaxInt)
						emitted += m
						continue
					}
					pidx, bidx, _ = tab.probe(probe, lo, pkeys[lo:lo+DefaultBatchSize], pidx[:0], bidx[:0], math.MaxInt)
					outP = gatherRows(outP[:0], probe[0], pidx)
					outB = gatherRows(outB[:0], build[0], bidx)
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

// scanJoinCells times COUNT(*) over a hash join of an n-row scan with a
// build of nb rows, on keys drawn from [0, n/4) — about four scan rows per
// build key — once through the scan's index and once streamed.
func scanJoinCells(b *testing.B, n, nb int) {
	rng := rand.New(rand.NewSource(int64(n + nb)))
	keys := func(rows int) *data.Column {
		c := &data.Column{Name: "k", Kind: data.Int}
		for range rows {
			c.AppendInt(int64(rng.Intn(max(n/4, 1))))
		}
		return c
	}
	pk, bk := keys(n), keys(nb)
	q := &query.Query{
		Refs:  []query.TableRef{{Alias: "p", Table: "p"}, {Alias: "b", Table: "b"}},
		Joins: []query.Join{{LeftAlias: "p", LeftCol: "k", RightAlias: "b", RightCol: "k"}},
	}
	p := plan.NewJoin(plan.HashJoin, plan.NewScan(plan.SeqScan, "p", "p", nil), plan.NewScan(plan.SeqScan, "b", "b", nil), q.Joins)
	for _, path := range []string{"streamed", "index"} {
		b.Run(fmt.Sprintf("scan=%d/build=%d/%s", n, nb, path), func(b *testing.B) {
			cat, probe := data.NewCatalog(), data.NewTable("p", pk)
			cat.Add(probe)
			cat.Add(data.NewTable("b", bk))
			if path == "index" {
				if _, err := probe.BuildIndex("k"); err != nil {
					b.Fatal(err)
				}
				defer func(k int) { indexProbeRatio = k }(indexProbeRatio)
				indexProbeRatio = 1 // measure the index path below the size rule too
			}
			ex := New(cat)
			ctx := context.Background()
			_, pt, err := ex.RunAnalyze(ctx, q, p)
			if err != nil {
				b.Fatal(err)
			}
			if probed := pt.Ops[2].Probed > 0; probed != (path == "index") {
				b.Fatalf("%s cell: join probed %d rows through the index", path, pt.Ops[2].Probed)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := ex.RunCtx(ctx, q, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/scan-row")
		})
	}
}
