package main

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression between
	// runs of the same seeds (fail_ratio: absolute): the issue's bounds,
	// which -compare applies whenever both sides ran the same seeds. The
	// exact counts repeat per seed, so theirs are tight.
	Bound float64
	// Across is the bound BENCHMARK.json lists, 0 when it does not list
	// the metric (the test pins the two together). The driver draws a new
	// seed for every run and accepts the benchmark only if the quartiles
	// of ten such runs lie within the bound, a third of it for choice, so
	// Across is three times the spread the metric showed over ten seeds
	// (README, "Bounds") or the driver's cap of 0.25, whichever is less;
	// it gets only metrics that are never 0 and do not hinge on the seed.
	Across float64
}

// endToEnd is what a caller of the library sees, the same eleven on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.15, 0.25},
	{"qps", "1/s", "higher", 0.10, 0.25},
	{"lat_p50_ms", "ms", "lower", 0.10, 0.25},
	{"lat_p95_ms", "ms", "lower", 0.10, 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.10, 0.25},
	{"allocs_per_query", "1", "lower", 0.02, 0.20},
	{"alloc_kb_per_query", "KB", "lower", 0.05, 0.20},
	{"work_units_per_query", "WU", "lower", 0.001, 0},
	{"gmrl", "ratio", "lower", 0.01, 0.12},
	{"heap_live_mb", "MB", "lower", 0.05, 0.25},
	{"fail_ratio", "ratio", "lower", 0, 0},
}

// perLayer lists the traced run's metrics in module.metric form. They
// carry no bound: they explain an end-to-end movement, they do not gate.
var perLayer = []metricDef{
	{"sqlx.parse_us", "us", "lower", 0, 0},
	{"sqlx.parse_allocs", "1", "lower", 0, 0},
	{"sqlx.bind_us", "us", "lower", 0, 0},
	{"query.key_us", "us", "lower", 0, 0},
	{"query.key_allocs", "1", "lower", 0, 0},
	{"serve.cache_get_us", "us", "lower", 0, 0},
	{"serve.cache_put_us", "us", "lower", 0, 0},
	{"serve.cache_observe_us", "us", "lower", 0, 0},
	{"serve.self_us", "us", "lower", 0, 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0, 0},
	{"serve.cache_evictions", "count", "lower", 0, 0},
	{"serve.cache_invalidations", "count", "lower", 0, 0},
	{"serve.cold_plans", "count", "lower", 0, 0},
	{"serve.rejected", "count", "lower", 0, 0},
	{"serve.shed", "count", "lower", 0, 0},
	{"serve.feedback_len", "count", "lower", 0, 0},
	{"opt.enumerate_us", "us", "lower", 0, 0},
	{"opt.plans_considered", "count", "lower", 0, 0},
	{"opt.optimize_allocs", "1", "lower", 0, 0},
	{"opt.harvest_us", "us", "lower", 0, 0},
	{"opt.harvest_allocs", "1", "lower", 0, 0},
	{"cardest.calls_per_plan", "count", "lower", 0, 0},
	{"cardest.estimate_us", "us", "lower", 0, 0},
	{"cardest.busy_us_per_plan", "us", "lower", 0, 0},
	{"cardest.qerr_geo", "ratio", "lower", 0, 0},
	{"cardest.qerr_p95", "ratio", "lower", 0, 0},
	{"cardest.train_s", "s", "lower", 0, 0},
	{"plan.passes_us", "us", "lower", 0, 0},
	{"plan.pass_rounds", "count", "lower", 0, 0},
	{"plan.passes_allocs", "1", "lower", 0, 0},
	{"exec.run_us", "us", "lower", 0, 0},
	{"exec.scan_self_us", "us", "lower", 0, 0},
	{"exec.join_self_us", "us", "lower", 0, 0},
	{"exec.sink_self_us", "us", "lower", 0, 0},
	{"exec.rows_in_per_result", "ratio", "lower", 0, 0},
	{"exec.blocks_skipped_ratio", "ratio", "higher", 0, 0},
	{"exec.batches_per_run", "count", "lower", 0, 0},
	{"exec.allocs_per_run", "1", "lower", 0, 0},
	{"exec.alloc_kb_per_run", "KB", "lower", 0, 0},
	{"exec.pool_in_use_after", "count", "lower", 0, 0},
	{"exec.work_units_per_query", "WU", "lower", 0, 0},
	{"adapt.observe_us", "us", "lower", 0, 0},
	{"adapt.tick_busy_ms", "ms", "lower", 0, 0},
	{"adapt.tick_max_ms", "ms", "lower", 0, 0},
	{"adapt.retrains", "count", "lower", 0, 0},
	{"adapt.swaps", "count", "higher", 0, 0},
	{"adapt.rollbacks", "count", "lower", 0, 0},
	{"adapt.gate_rejects", "count", "lower", 0, 0},
	{"adapt.recent_geo_q", "ratio", "lower", 0, 0},
	{"datagen.build_s", "s", "lower", 0, 0},
	{"stats.collect_s", "s", "lower", 0, 0},
	{"serve.warm_s", "s", "lower", 0, 0},
	{"share.sqlx", "ratio", "lower", 0, 0},
	{"share.query", "ratio", "lower", 0, 0},
	{"share.serve", "ratio", "lower", 0, 0},
	{"share.opt", "ratio", "lower", 0, 0},
	{"share.cardest", "ratio", "lower", 0, 0},
	{"share.plan", "ratio", "lower", 0, 0},
	{"share.exec", "ratio", "lower", 0, 0},
	{"share.adapt", "ratio", "lower", 0, 0},
	{"harness.prep_s", "s", "lower", 0, 0},
	{"trace.coverage_ratio", "ratio", "higher", 0, 0},
	{"trace.overhead_ratio", "ratio", "lower", 0, 0},
}

// value is one reported number. Spread is the in-run spread over rounds,
// (p75-p25)/median, for metrics estimated from rounds; 0 otherwise.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}
