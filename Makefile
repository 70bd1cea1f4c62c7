# lqo build & verification tiers.
#
#   make build   — compile everything
#   make test    — tier-1: the fast correctness suite
#   make lint    — lqolint: the repo's invariant analyzers (cmd/lqo-lint)
#   make race    — full suite under the race detector
#   make fuzz    — short fuzz smoke over the SQL parser, key encoding,
#                  the statement cache's and the plan binding's staleness
#                  rules, the hash-join table, the join's index probe,
#                  the scan filter kernels and the planner's estimation
#                  question (graph answer vs per-mask answer)
#   make verify  — what CI runs: build + vet + lint + tests + race + fuzz
#                  smoke, then staticcheck & govulncheck (skipped offline)
#   make bench   — regenerate every experiment table (E1..E10, E14..E16)
#   make bench-smoke — compile-and-run every Go benchmark once (no timing)
#   make benchmark   — the repo benchmark (BENCHMARK.json): five serving
#                      workloads, end-to-end + per-layer metrics
#   make benchmark-compare OLD=… NEW=… — judge two benchmark runs (files
#                      or directories of run_*.json) against the bounds
#   make bench-record PR=<n> — the benchmark at three fixed seeds, kept as
#                      BENCH_<n>/run_seed<S>.json plus BENCH_<n>/host.json
#   make exp-smoke — the experiments E5, E7, E8, E10, E14, E15 and E16
#                    with their fixed parameters; fails if any of them fails

GO ?= go

# Third-party checkers, pinned and run straight from the module proxy so
# no binary needs to be vendored or installed. Offline environments skip
# them gracefully (the resolve step fails, not the check).
STATICCHECK_MOD ?= honnef.co/go/tools
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_MOD ?= golang.org/x/vuln
GOVULNCHECK_VERSION ?= v1.1.3

FUZZTIME ?= 10s

.PHONY: build test vet lint staticcheck govulncheck race fuzz verify bench bench-smoke benchmark benchmark-compare bench-record exp-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The custom invariant suite; `go run ./cmd/lqo-lint -list` names its
# analyzers (see DESIGN.md "Static invariants"). Exit 2
# (including "matched no packages") fails the build just like findings
# do. CI wraps this in `timeout 60`: the whole-tree run is expected to
# finish in seconds, and a hung dataflow solve must fail, not stall CI.
lint:
	$(GO) run ./cmd/lqo-lint ./...

# staticcheck and govulncheck need the module proxy (and, for the vuln
# DB, the network). Probe with `go mod download` first so an offline run
# skips with a notice instead of failing on the fetch.
staticcheck:
	@if $(GO) mod download $(STATICCHECK_MOD)@$(STATICCHECK_VERSION) >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK_MOD)/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck: $(STATICCHECK_MOD)@$(STATICCHECK_VERSION) unavailable (offline?); skipping"; \
	fi

govulncheck:
	@if $(GO) mod download $(GOVULNCHECK_MOD)@$(GOVULNCHECK_VERSION) >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK_MOD)/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; \
	else \
		echo "govulncheck: $(GOVULNCHECK_MOD)@$(GOVULNCHECK_VERSION) unavailable (offline?); skipping"; \
	fi

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test ./internal/sqlx/ -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlx/ -run '^$$' -fuzz FuzzKeyUniqueness -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query/ -run '^$$' -fuzz FuzzSubqueryKey -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzStatementStaleness -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzBindingStaleness -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exec/ -run '^$$' -fuzz FuzzJoinTable -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exec/ -run '^$$' -fuzz FuzzIndexProbeJoin -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exec/ -run '^$$' -fuzz FuzzKernelsMatchScalar -fuzztime $(FUZZTIME)
	$(GO) test ./internal/opt/ -run '^$$' -fuzz FuzzEstimateGraph -fuzztime $(FUZZTIME)

verify: build vet lint test race fuzz staticcheck govulncheck

bench:
	$(GO) run ./cmd/lqo-bench -exp all

# One iteration of every benchmark — catches bit-rotted benchmark code
# without paying for real measurements. Of the root package only the
# planning scoreboard runs (BenchmarkOptimizeDP at 2-8 tables under the
# histogram and spn estimators, each answering a join graph at once, and
# its fallback/ cells, spn asked once per mask; and BenchmarkHarvest):
# its other benchmarks regenerate whole experiment tables. ./internal/exec/
# includes the join kernel's BenchmarkHashJoinProbe grid (build size ×
# match rate, each point listing its matches and, /count, counting them
# as a COUNT(*) root does) and BenchmarkFilterKernelVec (the filter
# kernels over the unclustered column at 10/50/90 % selectivity, Lt and
# Between, and a refining second conjunct); ./internal/serve/ is BenchmarkServeHit, the cached
# request end to end (ad-hoc, a new spelling of a cached query, prepared,
# prepared-wide: a binding the entry keeps no harvest record of) and the
# cold one (miss: parse, plan, execute, harvest; miss-observed: the same
# with the adaptation loop observing); ./internal/sqlx/ is
# BenchmarkParseStatement, the parse a never-seen text pays;
# ./internal/stats/ is BenchmarkCollectCatalog, the statistics refresh the
# adaptation loop's retrain runs (drifted StatsCEB at scale 0.02).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/exec/ ./internal/serve/ ./internal/sqlx/ ./internal/stats/ ./internal/bench/
	$(GO) test -run '^$$' -bench 'OptimizeDP|Harvest' -benchtime 1x .

# The repo benchmark, as the driver runs it (see benchmark/README.md).
# Arguments pass through: make benchmark ARGS="--workload cold_plan --seed 7".
benchmark:
	bash benchmark/run.sh $(ARGS)

benchmark-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make benchmark-compare OLD=<run.json|dir> NEW=<run.json|dir>"; exit 2; }
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

# The commit's entry in the benchmark trajectory: all five workloads at
# seeds 42, 43 and 44 (about 2m40s a seed on 2 cores), one run file per
# seed in BENCH_<n>/, which `make benchmark-compare OLD=BENCH_<m>
# NEW=BENCH_<n>` reads, and the host the runs were made on in
# BENCH_<n>/host.json: CPU count and GOMAXPROCS as the harness recorded
# them, the Go version, and the CPU model from /proc/cpuinfo.
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n>"; exit 2; }
	mkdir -p BENCH_$(PR)
	for s in 42 43 44; do bash benchmark/run.sh -seed $$s -out BENCH_$(PR)/run_seed$$s.json || exit 1; done
	@run=BENCH_$(PR)/run_seed42.json; \
	field() { sed -n "s/^ *\"$$1\": *\([0-9]*\),*$$/\1/p" $$run | head -n 1; }; \
	{ echo '{'; \
	  echo "  \"seeds\": \"42 43 44\","; \
	  echo "  \"num_cpu\": $$(field nproc),"; \
	  echo "  \"gomaxprocs\": $$(field gomaxprocs),"; \
	  echo "  \"go_version\": \"$$($(GO) env GOVERSION)\","; \
	  echo "  \"cpu_model\": \"$$(sed -n 's/^model name[[:space:]]*: *//p' /proc/cpuinfo | head -n 1)\","; \
	  echo '  "note": "allocs_per_query and heap_live_mb do not repeat exactly between runs of one seed until ROADMAP item 12 lands: judge them by their bounds, not bit for bit"'; \
	  echo '}'; } > BENCH_$(PR)/host.json
	cat BENCH_$(PR)/host.json

# The runtime experiments at quick scale, seed 42, with the fixed
# parameters every lqo-bench run uses (about 14 s together on 2 cores).
# E5 trains every registered planner, join-order searchers included (their
# only caller outside tests), executes its plans and plans the deep joins.
# E5 and E8 train and plan with every configuration of the steering core
# (bao exhaustive, explore and tree-conv, lero pairwise and pointwise,
# leon), E7 with its PilotScope driver. lqo-bench exits 1
# when any of them fails: E7 when a driver-steered answer differs from
# the native run, E14 when a served answer diverges from its uncached baseline, E16
# when a sharded run's Count, Value or charged WorkUnits diverge from the
# serial reference, any of them when a run it builds on (baseline,
# oracle, training, planning, the adaptation loop) errors.
exp-smoke:
	$(GO) run ./cmd/lqo-bench -exp E5,E7,E8,E10,E14,E15,E16
