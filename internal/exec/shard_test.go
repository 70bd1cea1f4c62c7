package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// shardCatalog builds a catalog whose fact table spans many zone blocks,
// so round-robin block partitioning and pruning have real structure to
// divide, plus a small dimension table for join coverage. fact.dim_id is
// indexed, for index scans.
func shardCatalog() *data.Catalog {
	cat := data.NewCatalog()
	fact := data.NewTable("fact",
		&data.Column{Name: "id", Kind: data.Int},
		&data.Column{Name: "v", Kind: data.Int},
		&data.Column{Name: "dim_id", Kind: data.Int})
	const n = 10 * data.ZoneBlockSize
	rng := int64(99)
	for i := 0; i < n; i++ {
		fact.Column("id").AppendInt(int64(i))
		rng = rng*6364136223846793005 + 1442695040888963407
		fact.Column("v").AppendInt((rng >> 33) % 100)
		fact.Column("dim_id").AppendInt((rng >> 13) % 20)
	}
	if _, err := fact.BuildIndex("dim_id"); err != nil {
		panic(err)
	}
	cat.Add(fact)
	dim := data.NewTable("dim",
		&data.Column{Name: "id", Kind: data.Int},
		&data.Column{Name: "w", Kind: data.Int})
	for i := 0; i < 20; i++ {
		dim.Column("id").AppendInt(int64(i))
		dim.Column("w").AppendInt(int64(i % 7))
	}
	cat.Add(dim)
	return cat
}

func shardQueries() []*query.Query {
	factRef := query.TableRef{Alias: "fact", Table: "fact"}
	return []*query.Query{
		{ // unclustered predicate: every block survives pruning
			Refs:  []query.TableRef{factRef},
			Preds: []query.Pred{{Alias: "fact", Column: "v", Op: query.Lt, Val: data.IntVal(30)}},
		},
		{ // clustered range: zone maps prune most blocks
			Refs:  []query.TableRef{factRef},
			Preds: []query.Pred{{Alias: "fact", Column: "id", Op: query.Between, Val: data.IntVal(2000), Val2: data.IntVal(4000)}},
		},
		{ // empty result
			Refs:  []query.TableRef{factRef},
			Preds: []query.Pred{{Alias: "fact", Column: "v", Op: query.Gt, Val: data.IntVal(1000)}},
		},
		{ // join over a sharded probe side
			Refs: []query.TableRef{factRef, {Alias: "dim", Table: "dim"}},
			Joins: []query.Join{
				{LeftAlias: "fact", LeftCol: "dim_id", RightAlias: "dim", RightCol: "id"},
			},
			Preds: []query.Pred{
				{Alias: "fact", Column: "v", Op: query.Le, Val: data.IntVal(50)},
				{Alias: "dim", Column: "w", Op: query.Ge, Val: data.IntVal(3)},
			},
		},
	}
}

// shardPlan reruns the canonical plan through the shard-scans pass.
func shardPlan(t *testing.T, q *query.Query, shards int) *plan.Node {
	t.Helper()
	p, err := CanonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if shards < 2 {
		return p
	}
	out, fired := plan.ShardScans(shards).Rewrite(context.Background(), p, &plan.PassContext{})
	if !fired {
		t.Fatalf("shard-scans did not fire at shards=%d", shards)
	}
	return out
}

// TestShardedIdentitySweep is the byte-identity contract for scatter-
// gather: every shard count × worker count × batch size must reproduce
// the serial ReferenceRun bit for bit — Count, Value and the full
// CostStats including charged WorkUnits. The reference also runs the
// sharded plan itself, evaluating each Merge leaf as its SeqScan.
func TestShardedIdentitySweep(t *testing.T) {
	cat := shardCatalog()
	for qi, q := range shardQueries() {
		refPlan, err := CanonicalPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(cat).ReferenceRun(context.Background(), q, refPlan)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			shardRef, err := New(cat).ReferenceRun(context.Background(), q, shardPlan(t, q, shards))
			if err != nil {
				t.Fatalf("q%d/shards=%d: reference of the sharded plan: %v", qi, shards, err)
			}
			if shardRef.Count != ref.Count || math.Float64bits(shardRef.Value) != math.Float64bits(ref.Value) || shardRef.Stats != ref.Stats {
				t.Fatalf("q%d/shards=%d: reference of the sharded plan %+v, of the unsharded %+v", qi, shards, shardRef, ref)
			}
			for _, batch := range []int{0, 64} {
				name := fmt.Sprintf("q%d/shards=%d/batch=%d", qi, shards, batch)
				ex := New(cat)
				ex.BatchSize = batch
				res, err := ex.RunCtx(context.Background(), q, shardPlan(t, q, shards))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Count != ref.Count || math.Float64bits(res.Value) != math.Float64bits(ref.Value) {
					t.Fatalf("%s: result %d/%v, reference %d/%v", name, res.Count, res.Value, ref.Count, ref.Value)
				}
				if res.Stats != ref.Stats {
					t.Fatalf("%s: stats %+v, reference %+v", name, res.Stats, ref.Stats)
				}
			}
		}
	}
}

// TestShardedTrueCardAndBlocks checks the telemetry the sharded path
// promises: the Merge leaf carries the whole scan's true cardinality and
// its operator's block-pruning telemetry, summed over the shards, equals
// the unsharded scan's counts.
func TestShardedTrueCardAndBlocks(t *testing.T) {
	cat := shardCatalog()
	q := shardQueries()[1] // clustered range: pruning active
	unsharded := shardPlan(t, q, 1)
	refRes, refPT, err := New(cat).RunAnalyze(context.Background(), q, unsharded)
	if err != nil {
		t.Fatal(err)
	}
	refTotal, refSkipped := refPT.Blocks()
	if refTotal == 0 || refSkipped == 0 {
		t.Fatalf("expected active pruning, got %d/%d", refSkipped, refTotal)
	}

	sharded := shardPlan(t, q, 4)
	_, pt, err := New(cat).RunAnalyze(context.Background(), q, sharded)
	if err != nil {
		t.Fatal(err)
	}
	total, skipped := pt.Blocks()
	if total != refTotal || skipped != refSkipped {
		t.Fatalf("sharded blocks %d/%d, unsharded %d/%d", skipped, total, refSkipped, refTotal)
	}
	if sharded.Op != plan.Merge || sharded.TrueCard != float64(refRes.Count) {
		t.Fatalf("%s TrueCard = %v, scan emitted %d", sharded.Op, sharded.TrueCard, refRes.Count)
	}
	mt, ok := pt.ByNode(sharded)
	if !ok || mt.BlocksTotal != refTotal || mt.BlocksSkipped != refSkipped {
		t.Fatalf("Merge operator blocks %+v (found %v), unsharded %d/%d", mt, ok, refSkipped, refTotal)
	}
	if len(pt.Ops) != len(refPT.Ops) {
		t.Fatalf("sharded run has %d operators, unsharded %d", len(pt.Ops), len(refPT.Ops))
	}
}

func TestScanShardValidation(t *testing.T) {
	cat := shardCatalog()
	ex := New(cat)
	scan := plan.NewScan(plan.Merge, "fact", "fact", nil)
	if _, err := ex.ScanShard(context.Background(), scan, 2, 2); err == nil {
		t.Fatal("shard index out of range should error")
	}
	if _, err := ex.ScanShard(context.Background(), scan, 0, 0); err == nil {
		t.Fatal("zero fan-out should error")
	}
	if _, err := ex.ScanShard(context.Background(), plan.NewScan(plan.SeqScan, "fact", "fact", nil), 0, 2); err == nil {
		t.Fatal("a scan that is not a Merge leaf should error")
	}
	nonLeaf := plan.NewJoin(plan.Merge, scan.Clone(), scan.Clone(), nil)
	if _, err := ex.ScanShard(context.Background(), nonLeaf, 0, 2); err == nil {
		t.Fatal("non-leaf should error")
	}
	bad := plan.NewScan(plan.Merge, "nope", "nope", nil)
	if _, err := ex.ScanShard(context.Background(), bad, 0, 2); err == nil {
		t.Fatal("unknown table should error")
	}
}

func TestMergeBuildValidation(t *testing.T) {
	cat := shardCatalog()
	q := shardQueries()[0]
	ex := New(cat)

	empty := shardPlan(t, q, 2)
	empty.Shards = 0
	if _, err := ex.RunCtx(context.Background(), q, empty); err == nil {
		t.Fatal("Merge without shards should fail to build")
	}

	wrong := shardPlan(t, q, 2)
	wrong.Left, wrong.Right = plan.NewScan(plan.SeqScan, "fact", "fact", nil), plan.NewScan(plan.SeqScan, "dim", "dim", nil)
	if _, err := ex.RunCtx(context.Background(), q, wrong); err == nil {
		t.Fatal("Merge with children should fail to build")
	}

	badCol := shardPlan(t, q, 2)
	badCol.Preds = []query.Pred{{Alias: "fact", Column: "nope", Op: query.Eq, Val: data.IntVal(1)}}
	if _, err := ex.RunCtx(context.Background(), q, badCol); err == nil {
		t.Fatal("unknown predicate column should fail like an unsharded scan")
	}
}

func TestShardedCancellation(t *testing.T) {
	cat := shardCatalog()
	q := shardQueries()[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(cat).RunCtx(ctx, q, shardPlan(t, q, 4)); err == nil {
		t.Fatal("cancelled sharded run should report the context error")
	}
}

// TestShardedEmptyTable covers the zero-block edge: a sharded scan over
// an empty table must agree with the unsharded executor end to end.
func TestShardedEmptyTable(t *testing.T) {
	cat := data.NewCatalog()
	empty := data.NewTable("e", &data.Column{Name: "id", Kind: data.Int})
	cat.Add(empty)
	q := &query.Query{Refs: []query.TableRef{{Alias: "e", Table: "e"}}}
	ref, err := New(cat).ReferenceRun(context.Background(), q, shardPlan(t, q, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cat).RunCtx(context.Background(), q, shardPlan(t, q, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != ref.Count || res.Stats != ref.Stats {
		t.Fatalf("empty-table shard run diverged: %+v vs %+v", res, ref)
	}
}

// faultBackend runs every shard on ex except shard bad, which fails with
// err — or, with a nil err, blocks until its context is canceled: a shard
// engine that is down, and one that hangs.
type faultBackend struct {
	ex  *Executor
	bad int
	err error
}

func (f *faultBackend) ScanShard(ctx context.Context, scan *plan.Node, shard, of int) (*ShardResult, error) {
	if shard != f.bad {
		return f.ex.ScanShard(ctx, scan, shard, of)
	}
	if f.err != nil {
		return nil, f.err
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestShardBackendFaults plugs a failing and a hanging shard into
// Executor.Backend. RunCtx must return the shard's error (or the
// context's), join every scatter goroutine, return every
// pooled buffer without misuse, and leave the executor exact for its next
// clean run.
func TestShardBackendFaults(t *testing.T) {
	cat := shardCatalog()
	q := shardQueries()[3]
	ref, err := New(cat).ReferenceRun(context.Background(), q, shardPlan(t, q, 1))
	if err != nil {
		t.Fatal(err)
	}
	down := errors.New("shard engine down")
	before := runtime.NumGoroutine()
	for _, fault := range []error{down, nil} { // nil: the shard hangs
		name := fmt.Sprintf("down=%v", fault != nil)
		ex := New(cat)
		dbg := NewDebugBatchPool()
		ex.SetPool(dbg)
		ex.Backend = &faultBackend{ex: ex, bad: 2, err: fault}
		ctx, cancel := context.WithCancel(context.Background())
		want := fault
		if fault == nil {
			time.AfterFunc(20*time.Millisecond, cancel)
			want = context.Canceled
		}
		_, err := ex.RunCtx(ctx, q, shardPlan(t, q, 4))
		cancel()
		if !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", name, err, want)
		}
		if n := dbg.InUse(); n != 0 {
			t.Fatalf("%s: %d pooled buffers outstanding", name, n)
		}
		if mis := dbg.Misuse(); len(mis) != 0 {
			t.Fatalf("%s: pool contract violations: %v", name, mis)
		}
		ex.Backend = nil
		res, err := ex.RunCtx(context.Background(), q, shardPlan(t, q, 4))
		if err != nil {
			t.Fatalf("%s: clean run: %v", name, err)
		}
		if res.Count != ref.Count || math.Float64bits(res.Value) != math.Float64bits(ref.Value) || res.Stats != ref.Stats {
			t.Fatalf("%s: clean run %+v, reference %+v", name, res, ref)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before+2; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after faulted runs", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// recoded returns a copy of t whose string dictionaries intern their
// strings in reverse order: the same rows, every string under a new code.
func recoded(t *data.Table) *data.Table {
	cols := make([]*data.Column, len(t.Cols))
	for i, c := range t.Cols {
		nc := &data.Column{Name: c.Name, Kind: c.Kind, Ints: slices.Clone(c.Ints), Flts: slices.Clone(c.Flts)}
		if c.Dict != nil {
			nc.Dict = data.NewDict()
			for code := c.Dict.Len() - 1; code >= 0; code-- {
				nc.Dict.Code(c.Dict.Str(int64(code)))
			}
			for r, code := range c.Ints {
				nc.Ints[r], _ = nc.Dict.Lookup(c.Dict.Str(code))
			}
		}
		cols[i] = nc
	}
	return data.NewTable(t.Name, cols...)
}

// TestShardBackendFollowsPin runs sharded scans through an explicit
// backend — the executor itself, whose ScanShard resolves a Merge leaf's
// table by name in the live catalog — while another goroutine replaces
// the table with re-coded copies, under which the literal 'x' filters
// on the code of 'z' (twice as many rows). A run must scan the table its
// Pin bound or fail: every reply that succeeds must equal ReferenceRun
// over that Pin.
func TestShardBackendFollowsPin(t *testing.T) {
	cat := data.NewCatalog()
	tag, v := &data.Column{Name: "tag", Kind: data.String}, &data.Column{Name: "v", Kind: data.Int}
	for i := 0; i < 4*data.ZoneBlockSize; i++ {
		tag.AppendString([]string{"x", "y", "y", "z", "z"}[i%5])
		v.AppendInt(int64(i % 7))
	}
	cat.Add(data.NewTable("s", tag, v))
	ex := New(cat)
	ex.Backend = ex
	stop, done := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for ; ; n++ {
			select {
			case <-stop:
				done <- n
				return
			default:
			}
			cat.Add(recoded(cat.Table("s")))
		}
	}()
	ctx := context.Background()
	failed := 0
	for i := 0; i < 300; i++ {
		pin := cat.Pin()
		x, _ := pin.Table("s").Column("tag").Dict.Lookup("x")
		q := &query.Query{
			Refs:  []query.TableRef{{Alias: "s", Table: "s"}},
			Preds: []query.Pred{{Alias: "s", Column: "tag", Op: query.Eq, Val: data.IntVal(x)}},
			Agg:   query.Agg{Kind: query.AggSum, Alias: "s", Column: "v"},
		}
		p := shardPlan(t, q, 3)
		res, err := ex.RunBound(ctx, pin, q, p, nil)
		if err != nil {
			failed++
			continue
		}
		want, err := New(pin).ReferenceRun(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want.Count || math.Float64bits(res.Value) != math.Float64bits(want.Value) || res.Stats != want.Stats {
			t.Fatalf("run %d: served %d/%v, the pinned reference %d/%v", i, res.Count, res.Value, want.Count, want.Value)
		}
	}
	close(stop)
	t.Logf("%d replacements; %d of 300 runs failed on a replaced table", <-done, failed)
}
