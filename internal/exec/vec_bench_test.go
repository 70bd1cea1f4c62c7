// Micro-benchmarks for the vectorized filter kernels vs. the scalar
// matchesAll path, the typed join-key gather vs. per-row FNV mixing, and
// the hash-join table's batch probe.
//
//	go test ./internal/exec/ -bench 'Filter|KeyGather|HashJoinProbe' -benchmem -run xx
//
// Results are recorded in EXPERIMENTS.md (E13).
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

func benchFilterScan(b *testing.B, novec bool, workers int) {
	cat, q := benchCatalog()
	ex := New(cat)
	ex.NoVec = novec
	ex.Workers = workers
	p, err := CanonicalPlan(q)
	if err != nil {
		b.Fatal(err)
	}
	want, err := ex.Run(q, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ex.Run(q, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != want.Count {
			b.Fatalf("count drifted: %d != %d", res.Count, want.Count)
		}
	}
}

func BenchmarkFilterScanVec(b *testing.B)      { benchFilterScan(b, false, 1) }
func BenchmarkFilterScanScalar(b *testing.B)   { benchFilterScan(b, true, 1) }
func BenchmarkFilterScanVecW4(b *testing.B)    { benchFilterScan(b, false, 4) }
func BenchmarkFilterScanScalarW4(b *testing.B) { benchFilterScan(b, true, 4) }

// benchKernelOnly isolates the filter kernel from plan/operator overhead:
// one blockFilter pass over the table vs. the scalar row loop.
func BenchmarkFilterKernelVec(b *testing.B) {
	cat, q := benchCatalog()
	cols := []*data.Column{cat.Table("t").Column("id")}
	bf := newBlockFilter(cols, q.Preds, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := filterSpanTuples(context.Background(), bf, 0, benchRows, nil, nil, nil)
		_ = out
	}
}

func BenchmarkFilterKernelScalar(b *testing.B) {
	cat, q := benchCatalog()
	cols := []*data.Column{cat.Table("t").Column("id")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out [][]int32
		for r := 0; r < benchRows; r++ {
			if matchesAll(cols, q.Preds, r) {
				out = append(out, []int32{int32(r)})
			}
		}
		_ = out
	}
}

// Key-extraction benchmarks: the typed single-column gather (raw int64
// map keys) vs. the old always-FNV compositeKey path, over 1M one-column
// build tuples.
func benchKeyTuples() ([][]int32, []keyCol) {
	c := &data.Column{Name: "k", Kind: data.Int}
	tuples := make([][]int32, benchRows)
	backing := make([]int32, benchRows)
	for i := 0; i < benchRows; i++ {
		c.Ints = append(c.Ints, int64(i%65536))
		backing[i] = int32(i)
		tuples[i] = backing[i : i+1 : i+1]
	}
	return tuples, []keyCol{{pos: 0, col: c}}
}

func BenchmarkKeyGatherTyped(b *testing.B) {
	tuples, kcs := benchKeyTuples()
	g := newKeyGather(kcs)
	var dst []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.gather(tuples, dst)
	}
	_ = dst
}

func BenchmarkKeyGatherFNV(b *testing.B) {
	tuples, kcs := benchKeyTuples()
	dst := make([]uint64, 0, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		for _, t := range tuples {
			dst = append(dst, compositeKey(t, kcs))
		}
	}
	_ = dst
}

// BenchmarkHashJoinProbe times the join kernel alone: key gather plus
// joinTable.probe of 64k probe tuples per op against an indexed build side
// of distinct keys, by build size (cache-resident to not) and by the share
// of probe tuples that find their one match (10 % is the regime the
// exec_heavy workload runs in: 6.7 % of its probe tuples match). Every
// batch's output is dead
// before the next, so the arena chunk is rewound onto one slab and the
// steady state allocates nothing.
func BenchmarkHashJoinProbe(b *testing.B) {
	const nProbe = 1 << 16
	for _, size := range []struct {
		name string
		n    int
	}{{"16", 16}, {"1k", 1 << 10}, {"64k", 1 << 16}} {
		for _, match := range []int{1, 10, 50, 100} {
			b.Run(fmt.Sprintf("build=%s/match=%d%%", size.name, match), func(b *testing.B) {
				rng := rand.New(rand.NewSource(15))
				// One key column serves both sides: rows [0, n) are the build
				// side (a permutation of 0..n-1), the rest the probe side.
				col := &data.Column{Name: "k", Kind: data.Int}
				for _, k := range rng.Perm(size.n) {
					col.Ints = append(col.Ints, int64(k))
				}
				for i := 0; i < nProbe; i++ {
					k := int64(rng.Intn(size.n))
					if rng.Intn(100) >= match {
						k = -1 - k
					}
					col.Ints = append(col.Ints, k)
				}
				rows := make([][]int32, size.n+nProbe)
				for i := range rows {
					rows[i] = []int32{int32(i)}
				}
				kcs := []keyCol{{pos: 0, col: col}}
				g := newKeyGather(kcs)
				pool := NewBatchPool()
				tab := joinTable{build: rows[:size.n], bks: kcs, pks: kcs, buildIsRight: true}
				tab.keys = g.gather(tab.build, pool.GetKeys(size.n))
				if err := tab.index(context.Background(), pool); err != nil {
					b.Fatal(err)
				}
				arena := tupleArena{pool: pool}
				chunk := arenaChunk{a: &arena}
				slab := arena.grab()
				pts, pkeys, out := rows[size.n:], pool.GetKeys(nProbe), pool.GetTuples(nProbe)
				emitted := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pkeys = g.gather(pts, pkeys)
					for lo := 0; lo < nProbe; lo += DefaultBatchSize {
						chunk.free = slab
						out, _ = tab.probe(pts[lo:lo+DefaultBatchSize], pkeys[lo:lo+DefaultBatchSize], out[:0], &chunk, math.MaxInt)
						emitted += len(out)
					}
				}
				b.StopTimer()
				if want := b.N * nProbe * match / 100; emitted < want*9/10 || emitted > want*11/10+nProbe/50 {
					b.Fatalf("emitted %d tuples, expected about %d", emitted, want)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nProbe), "ns/probe-row")
				tab.release(pool)
				arena.release()
				pool.PutKeys(pkeys)
				pool.PutTuples(out)
			})
		}
	}
}
