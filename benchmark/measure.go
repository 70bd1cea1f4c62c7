package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"lqo/internal/metrics"
	"lqo/internal/serve"
)

// served is what the server answered for one op of a round.
type served struct {
	Count     int64
	ValueBits uint64
	WU        float64
	Failed    bool
}

// round is the raw record of one replay of the op sequence.
type round struct {
	Wall, CPU      float64 // seconds inside the timed segments
	Mallocs, Bytes uint64
	Lat            []float64 // seconds, one per op
	Out            []served
	Failed         int
	FirstFailure   string
	Srv            serve.Stats // the servers' own counters over the round
	FeedbackLen    int
}

// runRound replays the op sequence once: every episode against its
// server, stage by stage. Every reply is checked against the reference
// answer; an error, a refusal or a wrong answer marks the op failed and
// the round goes on. rec == nil runs untimed (warm-up) and leaves the
// round's servers referenced from e.held; a timed round drops each server
// with its episode. Building an episode's server and drifting its data
// between stages is not timed.
func runRound(ctx context.Context, e *env, rec *round) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	e.held = nil
	for k := range e.p.Episodes {
		ep := &e.p.Episodes[k]
		t, err := e.target(k)
		if err != nil {
			return err
		}
		if rec == nil && e.p.Spec.Fresh {
			e.held = append(e.held, t)
		}
		before := t.srv.Stats()
		for si := range ep.Segments {
			beforeStage(t.b.cat, t.loop, ep, si)
			ops := ep.Segments[si].Ops
			if rec == nil {
				for i := range ops {
					_, _ = t.do(ctx, &ops[i]) // warm-up: failures are counted in timed rounds
				}
				continue
			}
			runtime.ReadMemStats(&m0)
			cpu0, start := cpuSeconds(), time.Now()
			for i := range ops {
				o := &ops[i]
				s := time.Now()
				res, err := t.do(ctx, o)
				rec.Lat = append(rec.Lat, time.Since(s).Seconds())
				out := served{Failed: err != nil}
				if err == nil {
					out = served{Count: res.Count, ValueBits: math.Float64bits(res.Value), WU: res.Latency}
					out.Failed = out.Count != o.Ref.Count || out.ValueBits != o.Ref.ValueBits
				}
				if out.Failed {
					rec.Failed++
					if rec.FirstFailure == "" {
						rec.FirstFailure = fmt.Sprintf("%s %v: got %+v, %v; want %+v", o.SQL, o.Args, out, err, o.Ref)
					}
				}
				rec.Out = append(rec.Out, out)
			}
			rec.Wall += time.Since(start).Seconds()
			rec.CPU += cpuSeconds() - cpu0
			runtime.ReadMemStats(&m1)
			rec.Mallocs += m1.Mallocs - m0.Mallocs
			rec.Bytes += m1.TotalAlloc - m0.TotalAlloc
		}
		if rec != nil {
			st := t.srv.Stats()
			rec.Srv.Cache.Hits += st.Cache.Hits - before.Cache.Hits
			rec.Srv.Cache.Misses += st.Cache.Misses - before.Cache.Misses
			rec.Srv.Cache.Evictions += st.Cache.Evictions - before.Cache.Evictions
			rec.Srv.Cache.Invalidations += st.Cache.Invalidations - before.Cache.Invalidations
			rec.Srv.ColdPlans += st.ColdPlans - before.ColdPlans
			rec.Srv.Rejected += st.Rejected - before.Rejected
			rec.Srv.Shed += st.Shed - before.Shed
			rec.FeedbackLen += t.srv.FeedbackLen()
		}
	}
	return nil
}

// quantile is the R-7 interpolated quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// spread is (p75-p25)/median: how far apart a sample's middle half lies.
func spread(v []float64) float64 {
	s := sortedCopy(v)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(m)
}

// measurement accumulates the untraced passes of one workload and turns
// them into the end-to-end metrics.
type measurement struct {
	p *prep

	setups  []float64
	split   setupSplit
	qps     []float64 // per round
	cpuMs   []float64
	allocs  []float64
	allocKB []float64
	p50     []float64
	p95     []float64
	minLat  []float64 // per op index, seconds, minimum over rounds
	first   []served  // the first round's replies
	// unstable counts rounds whose replies differ from the first round's:
	// the exact counts are only worth bounding tightly if they repeat.
	unstable  int
	attempted int
	failed    int
	failure   string // the first failed op, for the findings list
	heapMB    float64
	timed     float64 // seconds spent inside timed rounds
}

// setupSample sets the program up from scratch once and records the time.
func (m *measurement) setupSample(ctx context.Context) (*env, error) {
	runtime.GC()
	e, err := newEnv(ctx, m.p)
	if err != nil {
		return nil, err
	}
	m.setups = append(m.setups, e.split.total())
	m.split = e.split
	return e, nil
}

// pass sets the workload up from scratch, warms it and runs rounds until
// budget seconds of timed work are spent, at least minRounds of them.
func (m *measurement) pass(ctx context.Context, budget float64, minRounds int) error {
	e, err := m.setupSample(ctx)
	if err != nil {
		return err
	}
	spent := 0.0
	for r := 0; r < minRounds || spent < budget; r++ {
		rec, err := m.round(ctx, e)
		if err != nil {
			return err
		}
		spent += rec.Wall
	}
	// The live heap is what the program holds on to after serving a round:
	// catalog, server, plan cache, feedback store. The hit workloads' warmed
	// server is still referenced; a fresh workload's servers (and on
	// drift_adapt each episode's database and adaptation loop) are garbage
	// by now, so one more round, untimed, keeps them. Two collections: the
	// first only moves sync.Pool contents (the executor's buffers) to the
	// victim cache; they are cache, not state.
	if e.p.Spec.Fresh {
		if err := runRound(ctx, e, nil); err != nil {
			return err
		}
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(e)
	return nil
}

// round runs and records one timed round. It starts from a collected
// heap, so where the GC cycle stood when the previous round ended does
// not leak into this one.
func (m *measurement) round(ctx context.Context, e *env) (*round, error) {
	runtime.GC()
	rec := &round{}
	if err := runRound(ctx, e, rec); err != nil {
		return nil, err
	}
	m.add(rec)
	return rec, nil
}

func (m *measurement) add(r *round) {
	n := float64(len(r.Lat))
	m.timed += r.Wall
	m.attempted += len(r.Lat)
	m.failed += r.Failed
	if m.failure == "" {
		m.failure = r.FirstFailure
	}
	m.qps = append(m.qps, n/r.Wall)
	m.cpuMs = append(m.cpuMs, 1e3*r.CPU/n)
	m.allocs = append(m.allocs, float64(r.Mallocs)/n)
	m.allocKB = append(m.allocKB, float64(r.Bytes)/1024/n)
	q := metrics.Summarize(r.Lat)
	m.p50 = append(m.p50, 1e3*q.P50)
	m.p95 = append(m.p95, 1e3*q.P95)
	if m.first == nil {
		m.first = r.Out
		m.minLat = append([]float64(nil), r.Lat...)
		return
	}
	same := true
	for i, l := range r.Lat {
		m.minLat[i] = math.Min(m.minLat[i], l)
		same = same && r.Out[i] == m.first[i]
	}
	if !same {
		m.unstable++
	}
}

// moreSetups repeats the from-scratch set-up until setup_s rests on at
// least n samples or three seconds of set-up, whichever comes first (the
// issue asks for at least 9 samples or 1 s; a half-second set-up sampled
// three times still moved by a quarter between runs).
func (m *measurement) moreSetups(ctx context.Context, n int) error {
	total := 0.0
	for _, s := range m.setups {
		total += s
	}
	for len(m.setups) < n && total < 3 {
		if _, err := m.setupSample(ctx); err != nil {
			return err
		}
		total += m.setups[len(m.setups)-1]
	}
	return nil
}

// bestRoundQPS is ops per wall-clock second of the fastest round.
func (m *measurement) bestRoundQPS() float64 { return quantile(sortedCopy(m.qps), 1) }

// noisy reports whether the best and the median round differ by more
// than a quarter: a run to repeat rather than to trust.
func (m *measurement) noisy() bool { return m.bestRoundQPS() > 1.25*median(m.qps) }

// endToEnd turns the rounds into the eleven end-to-end metrics. Timing
// noise on a shared box is one-sided, so every timing is a minimum: qps is
// the best round's ops per wall-clock second, garbage collection and all;
// cpu_ms_per_query the cheapest round's process CPU time; the latency
// percentiles are taken over the op sequence after each op is reduced to
// its fastest round. Counts take the median round.
func (m *measurement) endToEnd() map[string]value {
	lat := sortedCopy(m.minLat)
	ops := m.p.ops()
	wu, rels := 0.0, []float64(nil)
	for i, o := range m.first {
		wu += o.WU
		if oracle := ops[i].OracleWU; !o.Failed && oracle > 0 {
			rels = append(rels, o.WU/oracle)
		}
	}
	out := map[string]value{
		"setup_s":              {Value: median(m.setups), Spread: spread(m.setups)},
		"qps":                  {Value: m.bestRoundQPS(), Spread: spread(m.qps)},
		"lat_p50_ms":           {Value: 1e3 * quantile(lat, 0.5), Spread: spread(m.p50)},
		"lat_p95_ms":           {Value: 1e3 * quantile(lat, 0.95), Spread: spread(m.p95)},
		"cpu_ms_per_query":     {Value: quantile(sortedCopy(m.cpuMs), 0), Spread: spread(m.cpuMs)},
		"allocs_per_query":     {Value: median(m.allocs), Spread: spread(m.allocs)},
		"alloc_kb_per_query":   {Value: median(m.allocKB), Spread: spread(m.allocKB)},
		"work_units_per_query": {Value: wu / float64(len(m.first))},
		"gmrl":                 {Value: metrics.GeoMean(rels)},
		"heap_live_mb":         {Value: m.heapMB},
		"fail_ratio":           {Value: float64(m.failed) / float64(max(1, m.attempted))},
	}
	for _, d := range endToEnd {
		v := out[d.Name]
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out
}
