# lqo build & verification tiers.
#
#   make build   — compile everything
#   make test    — tier-1: the fast correctness suite
#   make lint    — lqolint: the repo's invariant analyzers (cmd/lqo-lint)
#   make race    — full suite under the race detector
#   make fuzz    — short fuzz smoke over the SQL parser, key encoding,
#                  the statement cache's staleness rule and the hash-join
#                  table
#   make verify  — what CI runs: build + vet + lint + tests + race + fuzz
#                  smoke, then staticcheck & govulncheck (skipped offline)
#   make bench   — regenerate every experiment table (E1..E10, E14..E16)
#   make bench-smoke — compile-and-run every Go benchmark once (no timing)
#   make benchmark   — the repo benchmark (BENCHMARK.json): five serving
#                      workloads, end-to-end + per-layer metrics
#   make benchmark-compare OLD=… NEW=… — judge two benchmark runs (files
#                      or directories of run_*.json) against the bounds
#   make load-smoke  — E14 sustained-load smoke through the serving layer
#   make drift-smoke — E15 closed-loop adaptation under staged drift
#   make shard-smoke — E16 sharded scatter-gather vs the unsharded reference
#   make chaos   — E10 only: guardrail runtime under fault injection

GO ?= go

# Third-party checkers, pinned and run straight from the module proxy so
# no binary needs to be vendored or installed. Offline environments skip
# them gracefully (the resolve step fails, not the check).
STATICCHECK_MOD ?= honnef.co/go/tools
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_MOD ?= golang.org/x/vuln
GOVULNCHECK_VERSION ?= v1.1.3

FUZZTIME ?= 10s

.PHONY: build test vet lint staticcheck govulncheck race fuzz verify bench bench-smoke benchmark benchmark-compare load-smoke drift-smoke shard-smoke chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The custom invariant suite: cardclamp, guardsafe, ctxprop, atomicpub,
# determinism, floateq, keycanon, poolret, plus the CFG/dataflow quartet
# bufown, gojoin, passpure, errflow, policed by lintignore. Exit 2
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
	$(GO) test ./internal/exec/ -run '^$$' -fuzz FuzzJoinTable -fuzztime $(FUZZTIME)

verify: build vet lint test race fuzz staticcheck govulncheck

bench:
	$(GO) run ./cmd/lqo-bench -exp all

# One iteration of every benchmark — catches bit-rotted benchmark code
# without paying for real measurements. Of the root package only the
# planning scoreboard runs: its other benchmarks regenerate whole
# experiment tables. ./internal/exec/ includes the join kernel's
# BenchmarkHashJoinProbe grid (build size × match rate); ./internal/serve/
# is BenchmarkServeHit, the cached request end to end (ad-hoc, a new
# spelling of a cached query, prepared).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/exec/ ./internal/serve/ ./internal/bench/
	$(GO) test -run '^$$' -bench 'OptimizeDP|Harvest' -benchtime 1x .

# The repo benchmark, as the driver runs it (see benchmark/README.md).
# Arguments pass through: make benchmark ARGS="--workload cold_plan --seed 7".
benchmark:
	bash benchmark/run.sh $(ARGS)

benchmark-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make benchmark-compare OLD=<run.json|dir> NEW=<run.json|dir>"; exit 2; }
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

# A short E14 run: the serving layer under open-loop load. Fails loudly
# if cached results diverge from uncached baselines or serving errors.
load-smoke:
	$(GO) run ./cmd/lqo-bench -exp E14 -load-qps 100 -load-dur 3s

# A short E15 run: the closed adaptation loop over a drifting catalog.
# Fails loudly if the loop errors; the printed table shows whether the
# adaptive arm held its GMRL while the frozen baseline degraded.
drift-smoke:
	$(GO) run ./cmd/lqo-bench -exp E15 -adapt-stages 2

# A short E16 run: the shard-scans rewrite plus scatter-gather execution
# at fan-outs 1/2/4. Fails loudly if any sharded run's Count, Value or
# charged WorkUnits diverge from the serial ReferenceRun.
shard-smoke:
	$(GO) run ./cmd/lqo-bench -exp E16 -shards 1,2,4 -repeat 2

chaos:
	$(GO) run ./cmd/lqo-bench -chaos
