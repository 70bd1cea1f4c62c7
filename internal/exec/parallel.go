// Parallel execution layer: fork-join worker pools for the executor's
// large-fanout operators (sequential-scan filtering and the hash-join
// probe phase).
//
// Determinism contract. Parallelism must never change what the workbench
// measures. Both parallel operators partition their input into contiguous
// spans, give every worker private output vectors, and concatenate them
// in span order — so the produced row ids are byte-for-byte identical to
// the serial path, in the same order. WorkUnits (the latency
// proxy) are charged analytically from input/output cardinalities before
// and after the partitioned phase, never from per-worker progress, so the
// measured cost of a plan is the same at any worker count. Only
// wall-clock time changes.
package exec

import (
	"slices"
	"sync"
	"sync/atomic"
)

// parallelMinRows is the smallest input that is worth fanning out; below
// it the fork-join overhead dominates and the operator stays serial.
const parallelMinRows = 2048

// workers returns the effective intra-query parallelism degree.
func (e *Executor) workers() int {
	if e.Workers > 1 {
		return e.Workers
	}
	return 1
}

// span is one contiguous input partition [lo, hi).
type span struct{ lo, hi int }

// splitSpans partitions [0, n) into at most w near-equal contiguous
// spans. Concatenating per-span results in slice order reproduces the
// serial iteration order exactly.
func splitSpans(n, w int) []span {
	if w > n {
		w = n
	}
	spans := make([]span, 0, w)
	for i := 0; i < w; i++ {
		lo := i * n / w
		hi := (i + 1) * n / w
		if lo < hi {
			spans = append(spans, span{lo, hi})
		}
	}
	return spans
}

// runSpans evaluates fn over every span on its own goroutine and waits
// for all of them — a fork-join pool sized to the span count.
func runSpans(spans []span, fn func(i int, s span)) {
	var wg sync.WaitGroup
	wg.Add(len(spans))
	for i, s := range spans {
		go func(i int, s span) {
			defer wg.Done()
			fn(i, s)
		}(i, s)
	}
	wg.Wait()
}

// collectSpans is the one fork-join fill shared by the parallel scan and
// the hash-join probe. It runs fill over each span on its own goroutine,
// handing span si the private pooled vectors parts[si*k:(si+1)*k] (k =
// len(dst)), then appends them in span order — the serial iteration order
// — to dst[0:k] and returns them to the pool. A fill that returns false
// (cap exceeded, cancellation) aborts the whole segment: dst is left
// unchanged and the caller decides which error wins. *parts is the
// caller's scaffolding, kept for reuse.
func collectSpans(pool *BatchPool, spans []span, dst [][]int32, parts *[][]int32, fill func(si int, sp span, out [][]int32) bool) bool {
	k := len(dst)
	ps := slices.Grow((*parts)[:0], k*len(spans))[:k*len(spans)]
	*parts = ps
	for i := range ps {
		ps[i] = pool.GetSel(0)
	}
	var aborted atomic.Bool
	runSpans(spans, func(si int, sp span) {
		if !fill(si, sp, ps[si*k:(si+1)*k]) {
			aborted.Store(true)
		}
	})
	ok := !aborted.Load()
	for i, p := range ps {
		if ok {
			dst[i%k] = append(dst[i%k], p...)
		}
		pool.PutSel(p)
		ps[i] = nil
	}
	return ok
}
