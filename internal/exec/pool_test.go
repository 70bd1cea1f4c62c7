// Pool-contract tests: byte-identity of the pooled pipeline against the
// reference evaluator, leak accounting, debug-pool misuse detection, and
// shared-pool concurrency.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// TestPooledPipelineIdentitySweep is the pool's identity contract:
// pooling must keep Count, Value (bit pattern), the Cards record and the
// full CostStats byte-identical to ReferenceRun at every batch size ×
// shard fan-out — including the second, steady-state execution that
// actually recycles buffers. Every run uses a debug pool, so double puts
// and use-after-put surface here too. The column-pruning inputs
// ride along: an aggregate column carried up from the deepest leaf of
// 3-5-way joins, an index scan with residuals under a join, cross joins,
// all of them over 4-shard Merge leaves too.
func TestPooledPipelineIdentitySweep(t *testing.T) {
	cat := shardCatalog()
	for qi, q := range append(shardQueries(), pruningQueries()...) {
		refPlan := sweepPlan(t, cat, q, 1)
		ref, err := New(cat).ReferenceRun(context.Background(), q, refPlan)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			for _, batch := range []int{0, 1, 64} {
				name := fmt.Sprintf("q%d/shards=%d/batch=%d", qi, shards, batch)
				ex := New(cat)
				ex.BatchSize = batch
				dbg := NewDebugBatchPool()
				ex.SetPool(dbg)
				for run := 0; run < 2; run++ {
					p := sweepPlan(t, cat, q, shards)
					res, err := ex.RunCtx(context.Background(), q, p)
					if err != nil {
						t.Fatalf("%s run %d: %v", name, run, err)
					}
					if res.Count != ref.Count || math.Float64bits(res.Value) != math.Float64bits(ref.Value) {
						t.Fatalf("%s run %d: result %d/%v, reference %d/%v", name, run, res.Count, res.Value, ref.Count, ref.Value)
					}
					if res.Stats != ref.Stats {
						t.Fatalf("%s run %d: stats %+v, reference %+v", name, run, res.Stats, ref.Stats)
					}
					if !slices.Equal(res.Cards, ref.Cards) {
						t.Fatalf("%s run %d: Cards %v, reference %v", name, run, res.Cards, ref.Cards)
					}
				}
				if n := dbg.InUse(); n != 0 {
					t.Fatalf("%s: %d pooled buffers still outstanding after Close", name, n)
				}
				if mis := dbg.Misuse(); len(mis) != 0 {
					t.Fatalf("%s: pool contract violations: %v", name, mis)
				}
			}
		}
	}
}

// pruningQueries are the sweep's column-pruning inputs over shardCatalog:
// SUM/AVG/MIN/MAX of the canonical plan's deepest leaf (Refs[0]) through
// 3-, 4- and 5-way joins, so that column rides through every join; a MAX
// whose deepest leaf is an index scan (fact.dim_id is indexed) with a
// residual predicate; and cross joins reading the left and the right side.
func pruningQueries() []*query.Query {
	ref := func(alias, table string) query.TableRef { return query.TableRef{Alias: alias, Table: table} }
	join := func(la, lc, ra, rc string) query.Join {
		return query.Join{LeftAlias: la, LeftCol: lc, RightAlias: ra, RightCol: rc}
	}
	pred := func(alias, col string, op query.CmpOp, v int64) query.Pred {
		return query.Pred{Alias: alias, Column: col, Op: op, Val: data.IntVal(v)}
	}
	agg := func(k query.AggKind, alias, col string) query.Agg {
		return query.Agg{Kind: k, Alias: alias, Column: col}
	}
	threeWay := []query.Join{join("fact", "dim_id", "dim", "id"), join("dim", "w", "d2", "w")}
	fourWay := []query.Join{join("fact", "dim_id", "dim", "id"), join("f2", "id", "fact", "id"), join("d2", "id", "f2", "dim_id")}
	return []*query.Query{
		{
			Refs:  []query.TableRef{ref("fact", "fact"), ref("dim", "dim"), ref("d2", "dim")},
			Joins: threeWay,
			Preds: []query.Pred{pred("fact", "v", query.Lt, 10), pred("d2", "id", query.Lt, 4)},
			Agg:   agg(query.AggSum, "fact", "v"),
		},
		{
			Refs:  []query.TableRef{ref("fact", "fact"), ref("dim", "dim"), ref("f2", "fact"), ref("d2", "dim")},
			Joins: fourWay,
			Preds: []query.Pred{pred("fact", "v", query.Lt, 20), pred("dim", "w", query.Ge, 3)},
			Agg:   agg(query.AggAvg, "fact", "v"),
		},
		{
			Refs:  []query.TableRef{ref("fact", "fact"), ref("dim", "dim"), ref("f2", "fact"), ref("d2", "dim"), ref("d3", "dim")},
			Joins: append(fourWay[:3:3], join("d3", "w", "d2", "w")),
			Preds: []query.Pred{pred("fact", "v", query.Lt, 20), pred("dim", "w", query.Ge, 3), pred("d3", "id", query.Lt, 7)},
			Agg:   agg(query.AggMin, "fact", "id"),
		},
		{
			Refs:  []query.TableRef{ref("fact", "fact"), ref("dim", "dim"), ref("d2", "dim")},
			Joins: threeWay,
			Preds: []query.Pred{pred("fact", "dim_id", query.Eq, 5), pred("fact", "v", query.Lt, 50), pred("d2", "id", query.Lt, 7)},
			Agg:   agg(query.AggMax, "fact", "v"),
		},
		{
			Refs:  []query.TableRef{ref("fact", "fact"), ref("dim", "dim")},
			Preds: []query.Pred{pred("fact", "id", query.Lt, 100), pred("dim", "w", query.Eq, 2)},
			Agg:   agg(query.AggSum, "dim", "w"),
		},
		{
			Refs:  []query.TableRef{ref("fact", "fact"), ref("dim", "dim")},
			Preds: []query.Pred{pred("fact", "id", query.Lt, 100), pred("dim", "w", query.Eq, 2)},
			Agg:   agg(query.AggMin, "fact", "v"),
		},
	}
}

// sweepPlan is q's canonical plan with every leaf that has an equality on
// an indexed column turned into an index scan, then sharded shards ways.
func sweepPlan(t *testing.T, cat *data.Catalog, q *query.Query, shards int) *plan.Node {
	t.Helper()
	p, err := CanonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	p.Walk(func(n *plan.Node) {
		for _, pr := range n.Preds {
			if n.IsLeaf() && pr.Op == query.Eq && cat.Table(n.Table).Index(pr.Column) != nil {
				n.Op = plan.IndexScan
			}
		}
	})
	if shards < 2 {
		return p
	}
	out, fired := plan.ShardScans(shards).Rewrite(context.Background(), p, &plan.PassContext{})
	if !fired {
		t.Fatalf("shard-scans did not fire at shards=%d", shards)
	}
	return out
}

// TestDebugPoolDetectsDoublePut: returning the same buffer twice is
// recorded (not panicked) and the duplicate is refused.
func TestDebugPoolDetectsDoublePut(t *testing.T) {
	p := NewDebugBatchPool()
	s := p.GetSel(0)
	s = append(s, 7)
	p.PutSel(s)
	p.PutSel(s)
	if mis := p.Misuse(); len(mis) != 1 {
		t.Fatalf("misuse = %v, want exactly one double-put record", mis)
	}
}

// TestDebugPoolDetectsUseAfterPut: a stale write through a retained
// reference while the buffer sits in the pool is caught by the poison
// check on a later Get. Under -race, sync.Pool deliberately drops puts at
// random, so the put/write/get cycle retries until the stale buffer
// actually comes back.
func TestDebugPoolDetectsUseAfterPut(t *testing.T) {
	p := NewDebugBatchPool()
	detected := false
	for i := 0; i < 200 && !detected; i++ {
		s := p.GetSel(0)
		s = append(s, 1, 2, 3)
		p.PutSel(s)
		s[1] = 42
		_ = p.GetSel(0)
		detected = len(p.Misuse()) > 0
	}
	if !detected {
		t.Fatal("stale selection-vector write never detected")
	}
}

// TestDebugPoolChecksKeyBuffers: key scratch — the join table's keys and
// filter, the probe's gathered keys — gets the same double-put and
// use-after-put checks as row-id vectors.
func TestDebugPoolChecksKeyBuffers(t *testing.T) {
	p := NewDebugBatchPool()
	k := p.GetKeys(0)
	k = append(k, 7)
	p.PutKeys(k)
	p.PutKeys(k)
	if mis := p.Misuse(); len(mis) != 1 {
		t.Fatalf("misuse = %v, want exactly one double-put record for the key buffer", mis)
	}

	p2 := NewDebugBatchPool()
	detected := false
	for i := 0; i < 200 && !detected; i++ {
		k := p2.GetKeys(0)
		k = append(k, 1, 2, 3)
		p2.PutKeys(k)
		k[2] = 99 // stale write through the retained header
		_ = p2.GetKeys(0)
		detected = len(p2.Misuse()) > 0
	}
	if !detected {
		t.Fatal("stale key-buffer write never detected")
	}
}

// TestDebugPoolCleanCycle: a well-behaved get/put cycle records nothing.
func TestDebugPoolCleanCycle(t *testing.T) {
	p := NewDebugBatchPool()
	for i := 0; i < 3; i++ {
		s := p.GetSel(0)
		s = append(s, int32(i))
		k := p.GetKeys(0)
		k = append(k, uint64(i))
		var b Batch
		b.alloc(p, 2)
		b.free(p)
		p.PutKeys(k)
		p.PutSel(s)
	}
	if n := p.InUse(); n != 0 {
		t.Fatalf("InUse = %d after balanced cycles", n)
	}
	if mis := p.Misuse(); len(mis) != 0 {
		t.Fatalf("misuse on clean cycle: %v", mis)
	}
}

// TestPoolNilSafety: the nil pool (the one degrade path) must accept
// every call and report nothing outstanding.
func TestPoolNilSafety(t *testing.T) {
	var p *BatchPool
	s := p.GetSel(8)
	s = append(s, 1)
	p.PutSel(s)
	p.PutSel(nil)
	p.PutKeys(p.GetKeys(8))
	var b Batch
	b.alloc(p, 3)
	b.free(p)
	if p.InUse() != 0 || p.Misuse() != nil {
		t.Fatal("nil pool must account nothing")
	}
}

// TestPoolSharedAcrossConcurrentRuns exercises one pool under concurrent
// executors (the serving-layer shape) — run with -race. Each goroutine
// gets its own plan tree; results must match the reference and the pool
// must drain to zero.
func TestPoolSharedAcrossConcurrentRuns(t *testing.T) {
	cat := shardCatalog()
	qs := shardQueries()
	refs := make([]*Result, len(qs))
	for i, q := range qs {
		p, err := CanonicalPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		if refs[i], err = New(cat).ReferenceRun(context.Background(), q, p); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewBatchPool()
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				qi := (g + i) % len(qs)
				ex := New(cat)
				ex.SetPool(pool)
				p, err := CanonicalPlan(qs[qi])
				if err != nil {
					errc <- err
					return
				}
				res, err := ex.RunCtx(context.Background(), qs[qi], p)
				if err != nil {
					errc <- err
					return
				}
				if res.Count != refs[qi].Count || res.Stats != refs[qi].Stats {
					errc <- fmt.Errorf("goroutine %d q%d drifted: %+v vs %+v", g, qi, res, refs[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if n := pool.InUse(); n != 0 {
		t.Fatalf("%d buffers outstanding after all runs closed", n)
	}
}

// TestRunSetsSharedUnderGC: 8 goroutines share one debug pool across
// canonical and 4-shard Merge plans, with collections in between — run
// with -race, which flags two runs touching one set's stacks. Every answer
// matches the reference, the pool drains without misuse, and between runs
// each goroutine checks a set out directly and marks it: a set claimed
// while marked was handed to two holders.
func TestRunSetsSharedUnderGC(t *testing.T) {
	cat := shardCatalog()
	qs := shardQueries()
	refs := make([]*Result, len(qs))
	plans := make([][2]*plan.Node, len(qs)) // canonical, 4-shard
	for i, q := range qs {
		plans[i] = [2]*plan.Node{shardPlan(t, q, 1), shardPlan(t, q, 4)}
		var err error
		if refs[i], err = New(cat).ReferenceRun(context.Background(), q, shardPlan(t, q, 1)); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewDebugBatchPool()
	var held sync.Map
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ex := New(cat)
			ex.SetPool(pool)
			for i := 0; i < 12; i++ {
				qi := (g + i) % len(qs)
				res, err := ex.RunCtx(context.Background(), qs[qi], plans[qi][i%2])
				if err == nil && (res.Count != refs[qi].Count || res.Stats != refs[qi].Stats) {
					err = fmt.Errorf("goroutine %d q%d drifted: %+v vs %+v", g, qi, res, refs[qi])
				}
				if err != nil {
					errc <- err
					return
				}
				s := pool.checkout()
				if _, dup := held.LoadOrStore(s, g); dup {
					errc <- fmt.Errorf("goroutine %d claimed a set another holder has", g)
					return
				}
				runtime.Gosched()
				held.Delete(s)
				pool.checkin(s)
				if i%4 == g%4 {
					runtime.GC()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if n := pool.InUse(); n != 0 {
		t.Fatalf("%d buffers outstanding after all runs closed", n)
	}
	if mis := pool.Misuse(); len(mis) != 0 {
		t.Fatalf("pool contract violations: %v", mis)
	}
}

// TestIdleSetsVanishAfterTwoCollections: parked sets are cache, not state.
// None survives two collections with no run in between, which is what the
// benchmark's heap_live_mb reading relies on. (That a set survives one is
// TestWarmRunAfterGCAllocationCeiling's part.)
func TestIdleSetsVanishAfterTwoCollections(t *testing.T) {
	cat := shardCatalog()
	q := shardQueries()[3]
	pool := NewBatchPool()
	ex := New(cat)
	ex.SetPool(pool)
	var sets []weak.Pointer[runSet]
	for _, shards := range []int{1, 4, 1} {
		if _, err := ex.RunCtx(context.Background(), q, shardPlan(t, q, shards)); err != nil {
			t.Fatal(err)
		}
		sets = append(sets, *pool.last.Load())
	}
	runtime.GC()
	runtime.GC()
	for i, w := range sets {
		if w.Value() != nil {
			t.Fatalf("set %d is still reachable after two collections without a run", i)
		}
	}
	runtime.KeepAlive(ex) // the executor and its pool outlive the collections
}

// TestPoolNoLeakOnCancellation: canceled runs — immediately and mid-
// flight — must still return every buffer and leak no goroutine, and
// neither they nor a run that hits the intermediate cap may
// leave anything in the pool that the next run can see.
func TestPoolNoLeakOnCancellation(t *testing.T) {
	cat := shardCatalog()
	q := shardQueries()[3]
	before := runtime.NumGoroutine()
	for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
		for i := 0; i < 5; i++ {
			ex := New(cat)
			dbg := NewDebugBatchPool()
			ex.SetPool(dbg)
			p, err := CanonicalPlan(q)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			if delay == 0 {
				cancel()
			} else {
				time.AfterFunc(delay, cancel)
			}
			_, runErr := ex.RunCtx(ctx, q, p)
			cancel()
			// Whether the run finished or aborted, the pool must drain.
			if n := dbg.InUse(); n != 0 {
				t.Fatalf("delay=%v iter=%d err=%v: %d buffers outstanding", delay, i, runErr, n)
			}
			if mis := dbg.Misuse(); len(mis) != 0 {
				t.Fatalf("delay=%v iter=%d: misuse %v", delay, i, mis)
			}
		}
	}
	// Cancellation landing at every cooperative check of a join whose build
	// and probe both span several check intervals — so some land inside the
	// table build and inside the probe, with heads/next/keys/filter live. The
	// run's check sequence is deterministic: sweep it end to end.
	jq := &query.Query{
		Refs: []query.TableRef{{Alias: "a", Table: "fact"}, {Alias: "b", Table: "fact"}},
		Joins: []query.Join{
			{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "id"},
		},
		Preds: []query.Pred{{Alias: "b", Column: "v", Op: query.Lt, Val: data.IntVal(90)}},
	}
	refPlan, err := CanonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cat).ReferenceRun(context.Background(), q, refPlan)
	if err != nil {
		t.Fatal(err)
	}
	// One pool for the whole sweep: a run that fails is dropped, not
	// recycled, so the clean run of a different plan that follows each
	// abort — drawing operator structs and buffers from the same pool —
	// must still be exact.
	ex := New(cat)
	capped := New(cat)
	capped.MaxIntermediate = 100
	dbg := NewDebugBatchPool()
	ex.SetPool(dbg)
	capped.SetPool(dbg)
	for after, finished := int64(-1), false; !finished; after++ {
		p, err := CanonicalPlan(jq)
		if err != nil {
			t.Fatal(err)
		}
		var runErr error
		if after < 0 {
			// The join emits past the intermediate cap mid-probe.
			if _, runErr = capped.RunCtx(context.Background(), jq, p); runErr == nil {
				t.Fatal("capped run succeeded")
			}
		} else {
			_, runErr = ex.RunCtx(newCancelAfter(after), jq, p)
			if finished = runErr == nil; !finished && !errors.Is(runErr, context.Canceled) {
				t.Fatalf("after=%d: err = %v, want Canceled", after, runErr)
			}
		}
		res, err := ex.RunCtx(context.Background(), q, shardPlan(t, q, 1))
		if err != nil {
			t.Fatalf("after=%d: clean run after %v: %v", after, runErr, err)
		}
		if res.Count != ref.Count || math.Float64bits(res.Value) != math.Float64bits(ref.Value) || res.Stats != ref.Stats {
			t.Fatalf("after=%d: clean run after %v drifted: %+v vs reference %+v", after, runErr, res, ref)
		}
		if n := dbg.InUse(); n != 0 {
			t.Fatalf("after=%d err=%v: %d buffers outstanding", after, runErr, n)
		}
		if mis := dbg.Misuse(); len(mis) != 0 {
			t.Fatalf("after=%d: misuse %v", after, mis)
		}
		if finished && after < 12 {
			t.Fatalf("run finished after only %d context checks; the sweep no longer reaches the build and probe loops", after)
		}
	}
	// Nothing the runs started may outlive them.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after canceled runs", before, runtime.NumGoroutine())
}

// cancelAfter is a context that reports Canceled from its (n+1)-th Err
// call on, so a test can land cancellation at one exact cooperative check.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{}
	c.Context, c.cancel = context.WithCancel(context.Background())
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		c.cancel() // Done() observers see it too
		return context.Canceled
	}
	return c.Context.Err()
}
