package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/query"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

// spec defines one workload. Sizes are part of the benchmark definition:
// changing one changes every number, so they live here and nowhere else.
type spec struct {
	Name string
	Why  string

	Scale     float64 // datagen.StatsCEB scale
	Estimator string  // cardest registry name the server plans with
	Queries   int     // distinct generated queries (per stage on drift_adapt)
	MinJoins  int
	MaxJoins  int
	// CostLo..CostHi is the band the selected queries' cost is spread
	// over (log-spaced targets, see pickQueries), in canonical-plan work
	// units per scanned table of average size, so that it means the same
	// at every scale and after drift has grown the tables. It is what
	// keeps a workload's cost profile the same from seed to seed.
	CostLo, CostHi float64
	// ByTuples measures a query's cost in tuples its canonical plan joins
	// (plus a quarter of those it reads) instead of in work units. Work
	// units price a scanned row like a joined one, but the vectorised
	// scans make reading nearly free in time, so where execution is the
	// request the tuple count is the better stand-in for latency.
	ByTuples bool
	// MaxBlowup, when set, admits only queries none of whose alias subsets
	// (cross products included) has a true cardinality above MaxBlowup
	// times the top of the query's cost band: no plan of such a query, good
	// or bad, materialises more, so none can be refused by the executor's
	// intermediate cap or take a round's time on its own. It is set where
	// a warmed server keeps serving the same queries, so that one bad
	// replan would be replayed in every repetition of every round.
	MaxBlowup float64
	Reps      int  // how often a round replays the distinct set (hit workloads)
	Prepared  bool // send as ?-templates through Prepare/Exec
	Bindings  int  // bindings every query's template must admit
	Fresh     bool // fresh server per episode (every request is a cache miss)
	Stages    int  // drift stages after the clean one (drift_adapt)
	Holdout   int  // gate holdout queries per stage
	// Episodes is how many independent databases, each with its own
	// server and traffic, a round strings together (default 1). How an
	// adaptive server fares under drift differs from database to
	// database by a factor, not by per cent, so drift_adapt averages over
	// several per round to say something about the code rather than
	// about one database.
	Episodes int
}

func specs() []spec {
	return []spec{
		{
			Name: "hit_adhoc", Scale: 0.02, Estimator: "histogram",
			Why:     "64 light ad-hoc SQL texts, all plans cached: parse, key, cache get/clone and feedback harvest dominate",
			Queries: 64, MinJoins: 1, MaxJoins: 3, CostLo: 1.2, CostHi: 2.8, MaxBlowup: 8, Reps: 16, Bindings: 4,
		},
		{
			Name: "hit_prepared", Scale: 0.02, Estimator: "histogram",
			Why:     "the same shapes as ?-templates with 4 rotating bindings: no parse, shape key, generic-plan rebinding",
			Queries: 64, MinJoins: 1, MaxJoins: 3, CostLo: 1.2, CostHi: 2.8, MaxBlowup: 8, Reps: 4, Bindings: 4,
			Prepared: true,
		},
		{
			Name: "cold_plan", Scale: 0.02, Estimator: "spn",
			Why:     "600 never-repeating 3-5-join queries on a fresh server: enumeration, spn inference, passes and cache put/evict dominate",
			Queries: 600, MinJoins: 3, MaxJoins: 5, CostLo: 2.2, CostHi: 6, Reps: 1, Fresh: true,
		},
		{
			Name: "exec_heavy", Scale: 0.6, Estimator: "histogram",
			Why:     "160 cached 2-join queries over 30x more rows than the hit workloads, one worker: scan kernels, hash join and sink are the request",
			Queries: 160, MinJoins: 2, MaxJoins: 2, CostLo: 0.6, CostHi: 1.0, ByTuples: true, MaxBlowup: 8, Reps: 2,
		},
		{
			Name: "drift_adapt", Scale: 0.02, Estimator: "histogram",
			Why:     "12 fresh catalogs with adaptive servers per round, a clean stage then 2 drift stages each: observe, detect, retrain, gate, swap and flush run on the request path",
			Queries: 60, MinJoins: 1, MaxJoins: 2, CostLo: 1.2, CostHi: 3.2, Reps: 1, Fresh: true,
			Stages: 2, Holdout: 12, Episodes: 12,
		},
	}
}

func specByName(name string) (spec, bool) {
	for _, s := range specs() {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// tiny shrinks a spec for the package test: same code paths, a fraction
// of the work.
func (s spec) tiny() spec {
	s.Queries = min(s.Queries/8, 24)
	if s.Stages > 0 {
		s.Queries = 24 // a stage must still outlast the detector's windows
		s.Episodes = 2
	}
	s.Reps = min(s.Reps, 2)
	s.Scale = min(s.Scale, 0.05)
	return s
}

// answer is what the harness checks every reply against.
type answer struct {
	Count     int64
	ValueBits uint64
}

// op is one request of a round.
type op struct {
	SQL  string // ad-hoc text; the template text for prepared ops
	Stmt int    // prepared: index into prep.Templates
	Args []any  // prepared: bind arguments

	Ref      answer  // Executor.ReferenceRun over exec.CanonicalPlan
	OracleWU float64 // work units of the plan chosen with true cardinalities
}

// segment is a run of ops timed together: one stage of an episode. What
// happens to the world between stages (the data drifts) is not timed.
type segment struct {
	Ops     []op
	Holdout []workload.Labeled // drift_adapt: the gate's holdout for this stage
}

// episode is one database's share of a round: its seed and its stages.
type episode struct {
	Seed     int64
	Segments []segment
}

// prep is everything the harness derives from the seed before the program
// is set up: the op sequence, reference answers and oracle plans. None of
// it is program work; its cost is reported as harness.prep_s.
type prep struct {
	Spec      spec
	Seed      int64
	Templates []string  // prepared: ?-template SQL, one per distinct query
	Episodes  []episode // one round
	OpsHash   string
	PrepS     float64
}

// ops returns the round's ops in order.
func (p *prep) ops() []*op {
	var out []*op
	for e := range p.Episodes {
		for s := range p.Episodes[e].Segments {
			ops := p.Episodes[e].Segments[s].Ops
			for i := range ops {
				out = append(out, &ops[i])
			}
		}
	}
	return out
}

func driftOptions(seed int64, stage int) datagen.DriftOptions {
	return datagen.DriftOptions{Seed: seed + 1000*int64(stage), Fraction: 0.6, ValueSkew: 2.5, DomainShift: 0.6}
}

// truthEstimator answers execution truth from a cardinality cache: the
// oracle planner GMRL scores served plans against. The optimizer also asks
// about alias sets no join connects; their cardinality is the product of
// their connected parts, which spares executing the cross product.
type truthEstimator struct{ cache *exec.CardCache }

func (t truthEstimator) Estimate(q *query.Query) float64 {
	g := query.NewJoinGraph(q)
	todo := query.SetOf(g.Aliases)
	card := 1.0
	for _, start := range g.Aliases {
		if !todo[start] {
			continue
		}
		part := map[string]bool{}
		for frontier := []string{start}; len(frontier) > 0; frontier = frontier[1:] {
			a := frontier[0]
			if part[a] {
				continue
			}
			part[a] = true
			delete(todo, a)
			frontier = append(frontier, g.Neighbors(a)...)
		}
		c, err := t.cache.TrueCard(q.Subquery(part))
		if err != nil {
			// Beyond the executor's intermediate cap: larger than anything
			// a plan worth choosing produces.
			c = metrics.MaxCard
		}
		card *= c
	}
	return metrics.ClampCard(card)
}

// worstCard is the largest true cardinality of any alias subset of q, the
// cross products among them: no plan of q materialises more than that.
func (t truthEstimator) worstCard(q *query.Query) float64 {
	aliases := query.NewJoinGraph(q).Aliases
	worst := 0.0
	for mask := 1; mask < 1<<len(aliases); mask++ {
		set := map[string]bool{}
		for i, a := range aliases {
			if mask&(1<<i) != 0 {
				set[a] = true
			}
		}
		worst = math.Max(worst, metrics.ClampCard(t.Estimate(q.Subquery(set))))
	}
	return worst
}

// cand is a generated query with the cost of its canonical plan.
type cand struct {
	q     *query.Query
	class int // joins - MinJoins
	cost  float64
	used  bool
}

// pickQueries draws n distinct queries from the seed so that every seed
// yields the same cost profile: for each join count in [MinJoins,MaxJoins]
// the same number of queries, their canonical-plan work units matched to
// fixed log-spaced targets inside the spec's cost band. Unconstrained
// generator output is heavy-tailed (the mean work of 64 queries moved
// 3.6x between seeds in the probes), which would make every metric a
// function of the seed rather than of the code. skip holds keys already
// taken.
//
// Everything a query is chosen by is harness-side truth: what its
// canonical plan costs, how large its alias subsets really are
// (spec.MaxBlowup) and whether its template has bindings of similar
// cardinalities (spec.Bindings). The program under test is never asked, so
// a seed's op sequence is the same at every commit, and a query the
// program fails on stays in and is counted.
func pickQueries(ctx context.Context, h *harnessEnv, seed int64, sp spec, n int, skip map[string]bool) ([]*query.Query, error) {
	cat := h.cat
	classes := sp.MaxJoins - sp.MinJoins + 1
	levels := (n + classes - 1) / classes
	unit := float64(cat.TotalRows()) / float64(len(cat.TableNames()))
	band := func(class int) (lo, hi float64) {
		tables := float64(sp.MinJoins + class + 1)
		return sp.CostLo * tables * unit, sp.CostHi * tables * unit
	}
	// A plan inside the band emits at most top*1.2 tuples from a join
	// when cost counts tuples, and under four per work unit otherwise;
	// the cap makes rejecting the heavy tail cheap.
	_, top := band(classes - 1)
	ex := exec.New(cat)
	ex.MaxIntermediate = int(4 * top)
	if sp.ByTuples {
		ex.MaxIntermediate = int(1.2*top) + 1
	}
	// The blow-up guard's truth comes from an executor capped at the
	// largest limit: beyond it a subset counts as metrics.MaxCard.
	capped := exec.New(cat)
	capped.MaxIntermediate = int(sp.MaxBlowup*top) + 1
	sizes := truthEstimator{exec.NewCardCache(capped)}
	tame := func(q *query.Query, class int) bool {
		_, hi := band(class)
		return sp.MaxBlowup == 0 || sizes.worstCard(q) <= sp.MaxBlowup*hi
	}

	// The pool holds twice as many in-band candidates per join class as
	// the profile needs, so that every target finds a close match, and
	// grows when bindings turn candidates down.
	want := make([]int, classes)
	for k := 0; k < n; k++ {
		want[k%classes] += 2
	}
	var pool []*cand
	have := make([]int, classes)
	seen := map[string]bool{}
	chunk := 0
	fill := func() error {
		for {
			// One join count per chunk, the scarcest class first, so the
			// pool does not drown in the classes that fill quickly.
			class := -1
			for c := range want {
				if have[c] < want[c] && (class < 0 || have[c]*want[class] < have[class]*want[c]) {
					class = c
				}
			}
			if class < 0 {
				return nil
			}
			if chunk >= 400 {
				return fmt.Errorf("%s: generator cannot fill the cost profile (in band per join class: %v, want %v)", sp.Name, have, want)
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			joins := sp.MinJoins + class
			qs := workload.GenWorkload(cat, workload.Options{
				Seed: seed + 7919*int64(chunk), Count: 64, MinJoins: joins, MaxJoins: joins, MaxPreds: 3,
			})
			chunk++
			lo, hi := band(class)
			for _, q := range qs {
				key := q.Key()
				if len(q.Joins) != joins || seen[key] || skip[key] {
					continue
				}
				seen[key] = true
				p, err := exec.CanonicalPlan(q)
				if err != nil {
					continue
				}
				res, err := ex.RunCtx(ctx, q, p)
				if err != nil {
					continue
				}
				cost := res.Stats.WorkUnits
				if sp.ByTuples {
					cost = float64(res.Stats.TuplesJoined) + float64(res.Stats.TuplesRead)/4
				}
				if cost < lo/1.2 || cost > hi*1.2 || !tame(q, class) {
					continue
				}
				have[class]++
				pool = append(pool, &cand{q: q, class: class, cost: cost})
			}
		}
	}
	if err := fill(); err != nil {
		return nil, err
	}
	// A query sent with several bindings needs them to exist, and to be
	// as tame as the query itself.
	bindable := func(cd *cand) bool {
		if sp.Bindings == 0 {
			return true
		}
		bound := h.bindingsOf(cd.q, sp.Bindings, seed)
		for _, b := range bound {
			if !tame(b, cd.class) {
				return false
			}
		}
		return bound != nil
	}
	out := make([]*query.Query, 0, n)
	for k := 0; k < n; k++ {
		class, level := k%classes, k/classes
		lo, hi := band(class)
		target := lo * math.Pow(hi/lo, (float64(level)+0.5)/float64(levels))
		for {
			var best *cand
			bestD := math.Inf(1)
			for _, cd := range pool {
				if cd.used || cd.class != class {
					continue
				}
				if d := math.Abs(math.Log(cd.cost / target)); d < bestD {
					best, bestD = cd, d
				}
			}
			if best == nil {
				want[class] = have[class] + 2
				if err := fill(); err != nil {
					return nil, err
				}
				continue
			}
			best.used = true
			if bindable(best) {
				out = append(out, best.q)
				skip[best.q.Key()] = true
				break
			}
		}
	}
	return out, nil
}

// harnessEnv is the harness's own copy of the database: it answers
// reference results and true cardinalities and is never handed to the
// program under test.
type harnessEnv struct {
	cat    *data.Catalog
	cs     *stats.CatalogStats
	ex     *exec.Executor
	cache  *exec.CardCache
	oracle *opt.Optimizer
	bound  map[string][]*query.Query // bindingsOf memo
}

func newHarnessEnv(cat *data.Catalog, seed int64) *harnessEnv {
	ex := exec.New(cat)
	cache := exec.NewCardCache(ex)
	cs := stats.CollectCatalog(cat, stats.Options{Seed: seed})
	return &harnessEnv{
		cat: cat, cs: cs, ex: ex, cache: cache, bound: map[string][]*query.Query{},
		oracle: opt.New(cat, cost.New(cs), truthEstimator{cache}),
	}
}

// label fills an op's reference answer and oracle work units.
func (h *harnessEnv) label(ctx context.Context, q *query.Query, o *op) error {
	cp, err := exec.CanonicalPlan(q)
	if err != nil {
		return fmt.Errorf("canonical plan of %s: %w", q.SQL(), err)
	}
	ref, err := h.ex.ReferenceRun(ctx, q, cp)
	if err != nil {
		return fmt.Errorf("reference run of %s: %w", q.SQL(), err)
	}
	o.Ref = answer{ref.Count, math.Float64bits(ref.Value)}
	p, err := h.oracle.OptimizeCtx(ctx, q)
	if err != nil {
		return fmt.Errorf("oracle plan of %s: %w", q.SQL(), err)
	}
	res, err := h.ex.RunCtx(ctx, q, p)
	if err != nil {
		return fmt.Errorf("oracle run of %s: %w", q.SQL(), err)
	}
	o.OracleWU = res.Stats.WorkUnits
	return nil
}

// bindArg is what a client would pass for a literal of column kind k.
func bindArg(v data.Value) any {
	if v.K == data.Float {
		return v.F
	}
	return v.I
}

// template turns q's literals into ? placeholders and returns the
// template text with q's own literals as the first binding.
func template(q *query.Query) (string, []any) {
	t := q.Clone()
	var args []any
	for i := range t.Preds {
		p := &t.Preds[i]
		args = append(args, bindArg(p.Val))
		p.Param = len(args)
		if p.Op == query.Between {
			args = append(args, bindArg(p.Val2))
			p.Param2 = len(args)
		}
	}
	return t.SQL(), args
}

// rebound returns q with fresh literals sampled from the data, the way
// workload.GenWorkload samples them.
func rebound(cat *data.Catalog, q *query.Query, rng *rand.Rand) *query.Query {
	b := q.Clone()
	for i := range b.Preds {
		p := &b.Preds[i]
		col := cat.Table(b.TableOf(p.Alias)).Column(p.Column)
		p.Val = col.Value(rng.Intn(col.Len()))
		if p.Op == query.Between {
			p.Val2 = col.Value(rng.Intn(col.Len()))
			if p.Val.Compare(p.Val2) > 0 {
				p.Val, p.Val2 = p.Val2, p.Val
			}
		}
	}
	return b
}

// similarCards reports whether every connected sub-query of b has a true
// cardinality within 4x of the same sub-query of a: the q-error beyond
// which serve.Config{}'s default invalidates a cached plan whose estimate
// snapshot came from the other binding.
func (h *harnessEnv) similarCards(a, b *query.Query) bool {
	for _, set := range query.NewJoinGraph(a).ConnectedSubsets(0) {
		s := query.SetOf(set)
		ca, errA := h.cache.TrueCard(a.Subquery(s))
		cb, errB := h.cache.TrueCard(b.Subquery(s))
		if errA != nil || errB != nil || metrics.QError(ca, cb) > invalidateQError {
			return false
		}
	}
	return true
}

// bindingsOf returns n bindings of q's template, q itself first, that are
// pairwise similarCards, or nil when 300 resamplings do not find them.
// With such bindings the generic plan survives rotation, so hit_prepared
// measures the hit path and not replanning. Deterministic in (seed, q).
func (h *harnessEnv) bindingsOf(q *query.Query, n int, seed int64) []*query.Query {
	key := q.Key()
	if b, ok := h.bound[key]; ok {
		return b
	}
	hash := fnv.New64a()
	hash.Write([]byte(key))
	rng := rand.New(rand.NewSource(seed ^ int64(hash.Sum64())))
	bound := []*query.Query{q}
	for try := 0; len(bound) < n && try < 300; try++ {
		b := rebound(h.cat, q, rng)
		ok := true
		for _, have := range bound {
			ok = ok && have.Key() != b.Key() && h.similarCards(have, b)
		}
		if ok {
			bound = append(bound, b)
		}
	}
	if len(bound) < n {
		bound = nil
	}
	h.bound[key] = bound
	return bound
}

// buildPrep derives the whole op sequence of a workload from the seed.
func buildPrep(ctx context.Context, sp spec, seed int64) (*prep, error) {
	start := time.Now()
	p := &prep{Spec: sp, Seed: seed}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for k := 0; k < max(1, sp.Episodes); k++ {
		ep := episode{Seed: seed + 1_000_003*int64(k)}
		if err := p.buildEpisode(ctx, &ep, rng); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name, err)
		}
		p.Episodes = append(p.Episodes, ep)
	}
	hash := sha256.New()
	for _, o := range p.ops() {
		fmt.Fprintf(hash, "%s|%v\n", o.SQL, o.Args)
	}
	p.OpsHash = hex.EncodeToString(hash.Sum(nil))[:16]
	p.PrepS = time.Since(start).Seconds()
	return p, nil
}

// buildEpisode generates one database from the episode's seed and, stage
// by stage, the traffic it sees, labelled with reference answers.
func (p *prep) buildEpisode(ctx context.Context, ep *episode, rng *rand.Rand) error {
	sp, seed := p.Spec, ep.Seed
	cat := datagen.StatsCEB(datagen.Config{Seed: seed, Scale: sp.Scale})
	skip := map[string]bool{}
	for stage := 0; stage <= sp.Stages; stage++ {
		if stage > 0 {
			datagen.ApplyDrift(cat, driftOptions(seed, stage))
		}
		h := newHarnessEnv(cat, seed)
		qs, err := pickQueries(ctx, h, seed+500*int64(stage), sp, sp.Queries+sp.Holdout, skip)
		if err != nil {
			return err
		}
		// The holdout takes every stride-th pick so it spans the same
		// join classes and cost levels as the traffic.
		stride := len(qs) + 1
		if sp.Holdout > 0 {
			stride = len(qs) / sp.Holdout
		}
		var seg segment
		var distinct []op
		for i, q := range qs {
			if i%stride == 0 && len(seg.Holdout) < sp.Holdout {
				card, err := h.cache.TrueCard(q)
				if err != nil {
					return fmt.Errorf("holdout label: %w", err)
				}
				seg.Holdout = append(seg.Holdout, workload.Labeled{Q: q, Card: card})
				continue
			}
			if !sp.Prepared {
				o := op{SQL: q.SQL()}
				if err := h.label(ctx, q, &o); err != nil {
					return err
				}
				distinct = append(distinct, o)
				continue
			}
			tmpl, _ := template(q)
			p.Templates = append(p.Templates, tmpl)
			for _, b := range h.bindingsOf(q, sp.Bindings, seed) {
				_, args := template(b)
				o := op{SQL: tmpl, Stmt: len(p.Templates) - 1, Args: args}
				if err := h.label(ctx, b, &o); err != nil {
					return err
				}
				distinct = append(distinct, o)
			}
		}
		for rep := 0; rep < sp.Reps; rep++ {
			for _, i := range rng.Perm(len(distinct)) {
				seg.Ops = append(seg.Ops, distinct[i])
			}
		}
		ep.Segments = append(ep.Segments, seg)
	}
	return nil
}

// trainEstimator builds and fits the named estimator the way a user of
// the library would.
func trainEstimator(name string, cat *data.Catalog, cs *stats.CatalogStats, seed int64) (cardest.Estimator, error) {
	est, err := cardest.ByName(name)
	if err != nil {
		return nil, err
	}
	if err := est.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: seed}); err != nil {
		return nil, fmt.Errorf("train %s: %w", name, err)
	}
	return est, nil
}
