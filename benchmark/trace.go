package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lqo/internal/adapt"
	"lqo/internal/cost"
	"lqo/internal/exec"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/serve"
	"lqo/internal/sqlx"
)

// The serve.Config{} defaults the decomposed path has to mirror, because
// the server applies them behind unexported code.
const (
	invalidateQError = 4
	feedbackCap      = 8192
)

// span is one traced call: a layer boundary crossed on behalf of a request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a request
	Req    int32  `json:"req"`
}

type traceMode int

const (
	traceOff    traceMode = iota // warm-up replays
	traceTime                    // spans with wall-clock
	traceAllocs                  // heap-allocation deltas of the top-level calls
)

// allocDelta is heap objects and bytes allocated inside one kind of call.
type allocDelta struct {
	calls, objects, bytes uint64
}

// tracer keeps spans in memory; nothing is written until the run ends.
// In traceAllocs mode it reads runtime.MemStats around each top-level
// call instead of the clock: that stops the world, so it is a separate
// replay whose timings are discarded.
type tracer struct {
	mode   traceMode
	t0     time.Time
	spans  []span
	req    int32
	allocs map[string]*allocDelta
	ms     runtime.MemStats
	m0     [2]uint64
}

func (tr *tracer) begin(name string, parent int32) int32 {
	switch tr.mode {
	case traceTime:
		tr.spans = append(tr.spans, span{Name: name, Parent: parent, Req: tr.req, Start: int64(time.Since(tr.t0))})
		return int32(len(tr.spans) - 1)
	case traceAllocs:
		if parent == 0 {
			runtime.ReadMemStats(&tr.ms)
			tr.m0 = [2]uint64{tr.ms.Mallocs, tr.ms.TotalAlloc}
		}
	}
	// Outside traceTime only "is this a top-level call" matters to end:
	// requests are -1 → 0, their children 0 → 1.
	return parent + 1
}

func (tr *tracer) end(id int32, name string) {
	switch tr.mode {
	case traceTime:
		tr.spans[id].End = int64(time.Since(tr.t0))
	case traceAllocs:
		if id == 1 {
			runtime.ReadMemStats(&tr.ms)
			a := tr.allocs[name]
			if a == nil {
				a = &allocDelta{}
				tr.allocs[name] = a
			}
			a.calls++
			a.objects += tr.ms.Mallocs - tr.m0[0]
			a.bytes += tr.ms.TotalAlloc - tr.m0[1]
		}
	}
}

// tracedEstimator is what the decomposed path plans with: the server's
// feedback overlay over the base estimator, with the sub-query key and
// the model inference recorded as spans under whichever call (enumeration
// or the rewrite passes) asked.
type tracedEstimator struct {
	d      *decomposed
	base   opt.CardEstimator
	parent int32
}

func (e *tracedEstimator) Estimate(q *query.Query) float64 {
	e.d.c.estCalls++
	tr := e.d.tr
	s := tr.begin("query.key", e.parent)
	key := q.Key()
	tr.end(s, "query.key")
	if c, ok := e.d.feedback[key]; ok {
		return metrics.ClampCard(c)
	}
	s = tr.begin("cardest.estimate", e.parent)
	c := e.base.Estimate(q)
	tr.end(s, "cardest.estimate")
	return metrics.ClampCard(c)
}

// decomposed is the request path of serve.Server.run assembled from the
// same public calls in the same order, so that each can be timed from
// outside the program. It keeps its own plan cache and feedback store
// and implements adapt.Host like the server does.
type decomposed struct {
	b        *base
	opt      *opt.Optimizer
	cache    *serve.PlanCache
	feedback map[string]float64
	stmts    []*sqlx.Prepared
	loop     *adapt.Loop
	tr       *tracer
	est      *tracedEstimator
	c        *traceCounts
}

// traceCounts are the counts taken at the same boundaries as the spans.
type traceCounts struct {
	coldPlans, plansConsidered, passRounds, estCalls int64
	runs, batches, rowsIn, results                   int64
	blocks, blocksSkipped                            int64
	scanNs, joinNs, sinkNs                           int64
	retrains, swaps, rollbacks, gateRejects          int64
	recentGeoQ                                       float64
	logQ                                             []float64 // log q-error of every served sub-plan
}

func newDecomposed(b *base, p *prep, seed int64, tr *tracer, c *traceCounts) (*decomposed, error) {
	d := &decomposed{b: b, cache: serve.NewPlanCache(0), feedback: map[string]float64{}, tr: tr, c: c}
	var est opt.CardEstimator = b.est
	var sw *adapt.Swappable
	if p.Spec.Stages > 0 {
		sw = adapt.NewSwappable(b.est)
		est = sw
	}
	d.opt = opt.New(b.cat, cost.New(b.cs), est)
	d.est = &tracedEstimator{d: d, base: est}
	if sw != nil {
		d.loop = adapt.NewLoop(sw, d, adapt.NewGate(d.opt, b.ex, adapt.GateConfig{}), adaptConfig(seed, b.cat))
	}
	for _, sql := range p.Templates {
		st, err := sqlx.Prepare(sql, b.cat)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", sql, err)
		}
		d.stmts = append(d.stmts, st)
	}
	return d, nil
}

// FlushPlans implements adapt.Host.
func (d *decomposed) FlushPlans() int { return d.cache.Clear() }

// ResetFeedback implements adapt.Host.
func (d *decomposed) ResetFeedback() int {
	n := len(d.feedback)
	d.feedback = map[string]float64{}
	return n
}

// do serves one op through the decomposed path.
func (d *decomposed) do(ctx context.Context, o *op) (served, error) {
	tr := d.tr
	tr.req++
	root := tr.begin("request", -1)
	defer tr.end(root, "request")

	var q *query.Query
	var key string
	var err error
	if o.Args != nil {
		s := tr.begin("sqlx.bind", root)
		q, err = d.stmts[o.Stmt].Bind(o.Args...)
		tr.end(s, "sqlx.bind")
		key = d.stmts[o.Stmt].ShapeKey()
	} else {
		s := tr.begin("sqlx.parse", root)
		q, err = sqlx.Parse(o.SQL, d.b.cat)
		tr.end(s, "sqlx.parse")
		if err == nil {
			s = tr.begin("query.key", root)
			key = q.Key()
			tr.end(s, "query.key")
		}
	}
	if err != nil {
		return served{Failed: true}, nil
	}

	s := tr.begin("serve.cache_get", root)
	p := d.cache.Get(key)
	tr.end(s, "serve.cache_get")
	cached := p != nil
	if cached && o.Args != nil {
		s = tr.begin("serve.rebind", root)
		p.Walk(func(n *plan.Node) {
			if n.IsLeaf() || n.Op == plan.Merge {
				n.Preds = q.PredsOn(n.Alias)
			}
		})
		tr.end(s, "serve.rebind")
	}
	if p == nil {
		o2 := d.opt.WithEstimator(d.est)
		o2.Passes = &plan.PassPipeline{}
		s = tr.begin("opt.optimize", root)
		d.est.parent = s
		p, err = o2.OptimizeCtx(ctx, q)
		tr.end(s, "opt.optimize")
		if err != nil {
			return served{Failed: true}, nil
		}
		d.c.plansConsidered += int64(o2.PlansConsidered())
		s = tr.begin("plan.passes", root)
		d.est.parent = s
		var trace []plan.PassTrace
		// The optimizer hands the passes its estimate sanitizer, which is
		// the identity on the clamped values the wrapper returns.
		p, trace, err = plan.DefaultPipeline(0).Run(ctx, p, &plan.PassContext{Query: q, Estimate: d.est.Estimate})
		tr.end(s, "plan.passes")
		if err != nil {
			return served{Failed: true}, nil
		}
		if len(trace) > 0 {
			d.c.passRounds += int64(trace[len(trace)-1].Round)
		}
		d.c.coldPlans++
		s = tr.begin("serve.cache_put", root)
		d.cache.Put(key, p)
		tr.end(s, "serve.cache_put")
	}

	s = tr.begin("exec.run", root)
	res, pt, err := d.b.ex.RunAnalyze(ctx, q, p)
	tr.end(s, "exec.run")
	if err != nil {
		return served{Failed: true}, nil
	}
	d.countExec(res, pt)

	s = tr.begin("opt.harvest", root)
	cards := opt.CardsFromPlan(q, p)
	tr.end(s, "opt.harvest")
	s = tr.begin("serve.absorb", root)
	for k, v := range cards {
		if _, ok := d.feedback[k]; !ok && len(d.feedback) >= feedbackCap {
			continue
		}
		d.feedback[k] = v
	}
	tr.end(s, "serve.absorb")
	if cached {
		s = tr.begin("serve.cache_observe", root)
		d.cache.Observe(key, p, invalidateQError)
		tr.end(s, "serve.cache_observe")
	}
	if d.loop != nil {
		s = tr.begin("adapt.observe", root)
		d.loop.ObserveExec(q, p)
		tr.end(s, "adapt.observe")
	}
	if tr.mode == traceTime {
		p.WalkLogical(func(n *plan.Node) {
			d.c.logQ = append(d.c.logQ, math.Log(metrics.QError(n.EstCard, n.TrueCard)))
		})
	}
	if d.loop != nil {
		s = tr.begin("adapt.tick", root)
		_, err = d.loop.Tick(ctx)
		tr.end(s, "adapt.tick")
		if err != nil {
			return served{}, fmt.Errorf("adapt tick: %w", err)
		}
	}
	return served{Count: res.Count, ValueBits: math.Float64bits(res.Value), WU: res.Stats.WorkUnits}, nil
}

// countExec folds one execution's operator telemetry into the counts.
// An operator's self time is its inclusive wall-clock minus its inputs'.
func (d *decomposed) countExec(res *exec.Result, pt *exec.PlanTelemetry) {
	c := d.c
	c.runs++
	c.results += res.Count
	wall := func(n *plan.Node) int64 {
		if n == nil {
			return 0
		}
		if t, ok := pt.ByNode(n); ok {
			return int64(t.Wall)
		}
		return 0
	}
	var rootWall int64
	for _, t := range pt.Ops {
		c.batches += t.Batches
		c.blocks += t.BlocksTotal
		c.blocksSkipped += t.BlocksSkipped
		switch {
		case t.Node == nil:
			c.sinkNs += int64(t.Wall)
		case t.Node.IsLeaf():
			c.rowsIn += t.RowsIn
			c.scanNs += int64(t.Wall)
		default:
			c.joinNs += int64(t.Wall) - wall(t.Node.Left) - wall(t.Node.Right)
		}
		if t.Node != nil {
			rootWall = int64(t.Wall) // post-order: the plan root is the last node
		}
	}
	c.sinkNs -= rootWall
}

// warm brings the decomposed path to the state the server's warm-up
// reaches, by the same rule.
func (d *decomposed) warm(ctx context.Context, p *prep) error {
	for pass, churn := 0, int64(-1); pass < maxWarmPasses; pass++ {
		for _, o := range p.ops() {
			if _, err := d.do(ctx, o); err != nil {
				return err
			}
		}
		now := d.c.coldPlans + d.cache.Stats().Invalidations
		if now == churn {
			break
		}
		churn = now
	}
	return nil
}

// traced is the outcome of the traced run of one workload.
type traced struct {
	spans     []span  // the fastest replay's
	wall      float64 // seconds inside its request spans
	counts    traceCounts
	allocs    map[string]*allocDelta
	poolInUse int64
}

// tracedRun makes the traced replays of one workload on env e, one at a
// time so that the caller can alternate them with untraced rounds.
type tracedRun struct {
	e      *env
	tr     *tracer
	warmed *decomposed // hit workloads: the one warmed instance
	c      traceCounts // the replay in progress
	out    traced
}

func newTracedRun(e *env) *tracedRun {
	return &tracedRun{e: e, tr: &tracer{mode: traceTime}, out: traced{wall: math.Inf(1)}}
}

// decomposedFor builds the decomposed path on state equivalent to what
// episode k's server starts from.
func (r *tracedRun) decomposedFor(ctx context.Context, k int, tr *tracer, c *traceCounts) (*decomposed, error) {
	p := r.e.p
	if !p.Spec.Fresh && r.warmed != nil && r.warmed.tr == tr {
		return r.warmed, nil
	}
	b, err := r.e.episodeBase(k)
	if err != nil {
		return nil, err
	}
	d, err := newDecomposed(b, p, p.Episodes[k].Seed, tr, c)
	if err != nil || p.Spec.Fresh {
		return d, err
	}
	mode := tr.mode
	tr.mode = traceOff
	err = d.warm(ctx, p)
	tr.mode = mode
	if tr == r.tr {
		r.warmed = d
	}
	return d, err
}

// round runs every episode through the decomposed path under tr, checking
// each reply against what the server answered for the same op.
func (r *tracedRun) round(ctx context.Context, tr *tracer, c *traceCounts, want []served) error {
	p := r.e.p
	i := 0
	for k := range p.Episodes {
		ep := &p.Episodes[k]
		d, err := r.decomposedFor(ctx, k, tr, c)
		if err != nil {
			return err
		}
		if k == 0 {
			*c = traceCounts{} // what warming counted is not the round's
		}
		for si := range ep.Segments {
			beforeStage(d.b.cat, d.loop, ep, si)
			ops := ep.Segments[si].Ops
			for j := range ops {
				got, err := d.do(ctx, &ops[j])
				if err != nil {
					return err
				}
				if got != want[i] {
					return fmt.Errorf("decomposed path diverged from the server on op %d (%s %v): got %+v, server %+v", i, ops[j].SQL, ops[j].Args, got, want[i])
				}
				i++
			}
		}
		if d.loop != nil {
			st := d.loop.Stats()
			c.retrains += st.Rounds
			c.swaps += st.Swaps
			c.rollbacks += st.Rollbacks
			c.gateRejects += st.GateRejects
			c.recentGeoQ = st.Detector.RecentGeoQ
		}
		r.out.poolInUse = d.b.pool.InUse()
	}
	return nil
}

// replay runs the round once through the decomposed path and keeps the
// spans if it was the fastest.
func (r *tracedRun) replay(ctx context.Context, want []served) error {
	runtime.GC()
	tr := r.tr
	tr.spans, tr.req, tr.t0 = tr.spans[:0], 0, time.Now()
	if err := r.round(ctx, tr, &r.c, want); err != nil {
		return err
	}
	wall := 0.0
	for _, sp := range tr.spans {
		if sp.Parent < 0 {
			wall += float64(sp.End-sp.Start) / 1e9
		}
	}
	if wall < r.out.wall {
		r.out.wall = wall
		r.out.spans = append(r.out.spans[:0], tr.spans...)
		r.out.counts = r.c
		r.out.counts.logQ = append([]float64(nil), r.c.logQ...)
	}
	return nil
}

// finish replays once more, counting allocations instead of time.
func (r *tracedRun) finish(ctx context.Context, want []served) (*traced, error) {
	atr := &tracer{mode: traceAllocs, allocs: map[string]*allocDelta{}}
	var c traceCounts
	if err := r.round(ctx, atr, &c, want); err != nil {
		return nil, err
	}
	r.out.allocs = atr.allocs
	return &r.out, nil
}

// layerOf maps a span name to its module; the request span is harness glue.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return "harness"
}

// spanSums folds spans by name: calls, inclusive time and self time (a
// span minus the part its children cover), in nanoseconds.
type spanSum struct {
	calls      int64
	total, own int64
}

func sumSpans(spans []span) map[string]*spanSum {
	sums := map[string]*spanSum{}
	get := func(name string) *spanSum {
		s := sums[name]
		if s == nil {
			s = &spanSum{}
			sums[name] = s
		}
		return s
	}
	for _, sp := range spans {
		d := sp.End - sp.Start
		s := get(sp.Name)
		s.calls++
		s.total += d
		s.own += d
		if sp.Parent >= 0 {
			get(spans[sp.Parent].Name).own -= d
		}
	}
	return sums
}

// perLayerMetrics turns the traced run, the untraced measurement made
// beside it and the server's own counters into the per-layer metrics.
func perLayerMetrics(p *prep, m *measurement, tr *traced, last *round) map[string]value {
	st := last.Srv
	sums := sumSpans(tr.spans)
	var tickMaxNs int64
	for _, sp := range tr.spans {
		if sp.Name == "adapt.tick" {
			tickMaxNs = max(tickMaxNs, sp.End-sp.Start)
		}
	}
	sum := func(name string) spanSum {
		if s := sums[name]; s != nil {
			return *s
		}
		return spanSum{}
	}
	perCall := func(ns, calls int64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(ns) / 1e3 / float64(calls)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	callUs := func(name string) float64 { s := sum(name); return perCall(s.total, s.calls) }
	ownUs := func(name string) float64 { s := sum(name); return perCall(s.own, s.calls) }
	allocs := func(name string) float64 {
		a := tr.allocs[name]
		if a == nil || a.calls == 0 {
			return 0
		}
		return float64(a.objects) / float64(a.calls)
	}
	allocKB := func(name string) float64 {
		a := tr.allocs[name]
		if a == nil || a.calls == 0 {
			return 0
		}
		return float64(a.bytes) / 1024 / float64(a.calls)
	}

	ops := float64(len(m.minLat))
	servedWU := 0.0
	for _, o := range m.first {
		servedWU += o.WU
	}
	bestWall := ops / m.bestRoundQPS() // seconds
	// Everything the request span's children cover; what the server does
	// beyond it (admission, breaker, locks, the reply) is the remainder.
	var covered int64
	layerNs := map[string]float64{}
	for name, s := range sums {
		if name == "request" {
			continue
		}
		layerNs[layerOf(name)] += float64(s.own)
	}
	covered = sum("request").total - sum("request").own
	selfNs := math.Max(0, bestWall*1e9-float64(covered))
	layerNs["serve"] += selfNs
	totalNs := 0.0
	for _, v := range layerNs {
		totalNs += v
	}

	c := tr.counts
	cold := float64(c.coldPlans)
	qs := append([]float64(nil), c.logQ...)
	sort.Float64s(qs)
	qGeo := 0.0
	for _, l := range qs {
		qGeo += l
	}
	lookups := float64(st.Cache.Hits + st.Cache.Misses)

	v := map[string]float64{
		"sqlx.parse_us":             callUs("sqlx.parse"),
		"sqlx.parse_allocs":         allocs("sqlx.parse"),
		"sqlx.bind_us":              callUs("sqlx.bind"),
		"query.key_us":              callUs("query.key"),
		"query.key_allocs":          allocs("query.key"),
		"serve.cache_get_us":        callUs("serve.cache_get"),
		"serve.cache_put_us":        callUs("serve.cache_put"),
		"serve.cache_observe_us":    callUs("serve.cache_observe"),
		"serve.self_us":             selfNs / 1e3 / ops,
		"serve.cache_hit_ratio":     ratio(float64(st.Cache.Hits), lookups),
		"serve.cache_evictions":     float64(st.Cache.Evictions),
		"serve.cache_invalidations": float64(st.Cache.Invalidations),
		"serve.cold_plans":          float64(st.ColdPlans),
		"serve.rejected":            float64(st.Rejected),
		"serve.shed":                float64(st.Shed),
		"serve.feedback_len":        float64(last.FeedbackLen),
		"opt.enumerate_us":          ownUs("opt.optimize"),
		"opt.plans_considered":      ratio(float64(c.plansConsidered), cold),
		"opt.optimize_allocs":       allocs("opt.optimize"),
		"opt.harvest_us":            callUs("opt.harvest"),
		"opt.harvest_allocs":        allocs("opt.harvest"),
		"cardest.calls_per_plan":    ratio(float64(c.estCalls), cold),
		"cardest.estimate_us":       callUs("cardest.estimate"),
		"cardest.busy_us_per_plan":  ratio(float64(sum("cardest.estimate").total)/1e3, cold),
		"cardest.qerr_geo":          math.Exp(ratio(qGeo, float64(len(qs)))),
		"cardest.qerr_p95":          math.Exp(quantile(qs, 0.95)),
		"cardest.train_s":           m.split.Train,
		"plan.passes_us":            ownUs("plan.passes"),
		"plan.pass_rounds":          ratio(float64(c.passRounds), cold),
		"plan.passes_allocs":        allocs("plan.passes"),
		"exec.run_us":               callUs("exec.run"),
		"exec.scan_self_us":         perCall(c.scanNs, c.runs),
		"exec.join_self_us":         perCall(c.joinNs, c.runs),
		"exec.sink_self_us":         perCall(c.sinkNs, c.runs),
		"exec.rows_in_per_result":   ratio(float64(c.rowsIn), math.Max(1, float64(c.results))),
		"exec.blocks_skipped_ratio": ratio(float64(c.blocksSkipped), float64(c.blocks)),
		"exec.batches_per_run":      ratio(float64(c.batches), float64(c.runs)),
		"exec.allocs_per_run":       allocs("exec.run"),
		"exec.alloc_kb_per_run":     allocKB("exec.run"),
		"exec.pool_in_use_after":    float64(tr.poolInUse),
		"exec.work_units_per_query": ratio(servedWU, ops),
		"adapt.observe_us":          callUs("adapt.observe"),
		"adapt.tick_busy_ms":        float64(sum("adapt.tick").total) / 1e6,
		"adapt.tick_max_ms":         float64(tickMaxNs) / 1e6,
		"adapt.retrains":            float64(c.retrains),
		"adapt.swaps":               float64(c.swaps),
		"adapt.rollbacks":           float64(c.rollbacks),
		"adapt.gate_rejects":        float64(c.gateRejects),
		"adapt.recent_geo_q":        c.recentGeoQ,
		"datagen.build_s":           m.split.Datagen,
		"stats.collect_s":           m.split.Stats,
		"serve.warm_s":              m.split.Warm,
		"harness.prep_s":            p.PrepS,
		"trace.coverage_ratio":      ratio(float64(covered)/1e9, bestWall),
		"trace.overhead_ratio":      ratio(tr.wall, bestWall),
	}
	for _, l := range []string{"sqlx", "query", "serve", "opt", "cardest", "plan", "exec", "adapt"} {
		v["share."+l] = ratio(layerNs[l], totalNs)
	}
	out := map[string]value{}
	for _, d := range perLayer {
		out[d.Name] = value{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

// writeTrace writes the best replay's spans where later tools can read
// them: benchmark/out/trace_<workload>.json.
func writeTrace(dir string, p *prep, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		OpsHash  string `json:"ops_hash"`
		Spans    []span `json:"spans"`
	}{p.Spec.Name, p.Seed, p.OpsHash, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+p.Spec.Name+".json"), body, 0o644)
}
