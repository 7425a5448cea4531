GO ?= go

.PHONY: all build test race vet cover bench-figures repo-bench repo-bench-compare alloc-profile alloc-profile-store cpu-profile-store alloc-budget campaign-smoke trace-smoke store-smoke l4-smoke explore-smoke telemetry-smoke fleet-smoke check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Per-package statement coverage, lowest first, with the module-wide
# figure last. Advisory: low coverage is a signal, not a gate.
cover:
	$(GO) test -count=1 -cover -coverprofile=cover.out ./... \
		| grep -E 'coverage: [0-9.]+% of statements' \
		| sed -E 's/^ok +([^ ]+).*coverage: ([0-9.]+)%.*/\2%  \1/' \
		| sort -n
	@echo "total: $$($(GO) tool cover -func=cover.out | tail -n 1 | awk '{print $$3}')"
	@rm -f cover.out

# The repository benchmark (BENCHMARK.json): seven workloads, each in its
# own process, end-to-end metrics and oracles. bench/README.md has the
# flags (-workload, -trace, -json, -seed).
repo-bench:
	$(GO) run ./bench

# Compare two result files written with `go run ./bench -json FILE`:
# make repo-bench-compare A=parent.json B=change.json
repo-bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# Where one proxied exchange's allocations go: every allocation sampled,
# top sites by object count (EXPERIMENTS.md, "Where a hop's allocations
# go"). The counts cover 20000 exchanges, so divide by 20000.
ALLOC_PROFILE_DIR ?= .bench_build/alloc-profile
alloc-profile:
	mkdir -p $(ALLOC_PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'Figure8ProxiedRequest200Rules$$' -benchtime 20000x \
		-memprofilerate=1 -memprofile $(ALLOC_PROFILE_DIR)/mem.out -o $(ALLOC_PROFILE_DIR)/proxy.test ./internal/proxy
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=40 \
		$(ALLOC_PROFILE_DIR)/proxy.test $(ALLOC_PROFILE_DIR)/mem.out

# Where a shipped record's allocations go: one campaign unit's store
# traffic over HTTP (LogBatch 256 -> Select -> Count -> ClearMatching on a
# WAL-backed 4-shard store holding 100k records), every allocation
# sampled (EXPERIMENTS.md, "Where a record's allocations go"). The counts
# cover 512 units plus the 100k-record prefill; `-list` a function to
# split the two.
alloc-profile-store:
	mkdir -p $(ALLOC_PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'StoreShipSelectClear$$' -benchtime 512x \
		-memprofilerate=1 -memprofile $(ALLOC_PROFILE_DIR)/store-mem.out -o $(ALLOC_PROFILE_DIR)/eventlog.test ./internal/eventlog
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=40 \
		$(ALLOC_PROFILE_DIR)/eventlog.test $(ALLOC_PROFILE_DIR)/store-mem.out

# Where a campaign unit's store time goes: the same unit, CPU-profiled,
# top 25 by cumulative time (EXPERIMENTS.md, "Where a campaign unit's
# store time goes"). 2000 units, so the two 100k-record prefills the
# benchmark runs (b.N = 1, then 2000) stay a minor share.
cpu-profile-store:
	mkdir -p $(ALLOC_PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'StoreShipSelectClear$$' -benchtime 2000x \
		-cpuprofile $(ALLOC_PROFILE_DIR)/store-cpu.out -o $(ALLOC_PROFILE_DIR)/eventlog.test ./internal/eventlog
	$(GO) tool pprof -top -cum -nodecount=25 \
		$(ALLOC_PROFILE_DIR)/eventlog.test $(ALLOC_PROFILE_DIR)/store-cpu.out

# The data path's allocation budgets and header-sharing invariants, under
# the race detector: per-helper budgets in internal/trace, the
# whole-exchange budget and shared-header forwarding in internal/proxy,
# the record codec's budget and its fuzz seed corpus, a volatile store's
# allocation-free Log and cheap constructors (StoreLogAllocBudget),
# copy-free WAL compaction (budget and unordered-shard replay) in
# internal/eventlog, the L4 relay's per-connection budget, passed
# through and throttled (RelayAllocBudget), in internal/streamproxy, and
# the orchestrator's registry fan-out read (RegistryReadAllocBudget) in
# internal/registry.
alloc-budget:
	$(GO) test -race -count=1 -run 'AllocBudget|StoreLogAllocBudget|RelayAllocBudget|RegistryReadAllocBudget|HeaderConstantsCanonical|Stamp|FuzzAppendEI|SharedHeaderForwarding|PoolCounts|FuzzRecordCodec|CompactUnorderedShardReplays' \
		./internal/trace ./internal/proxy ./internal/eventlog ./internal/streamproxy ./internal/registry

# The paper's full evaluation series (Tables 1-3, Figures 5-8).
bench-figures:
	$(GO) run ./cmd/gremlin paper

# A complete fault-space campaign on an in-process 7-service tree:
# enumeration, parallel isolated runs, signature pruning, scorecard.
campaign-smoke:
	$(GO) run ./examples/campaign

# End-to-end causal-tracing smoke: spans propagate through live agents,
# the waterfall's critical path crosses a 100ms-delayed edge, and the
# inflation is attributed to the injected rule. Exits non-zero otherwise.
trace-smoke:
	$(GO) run ./examples/tracing

# Crash-recovery smoke: a real gremlin logstore process is SIGKILLed
# mid-stream; the restart must replay every acknowledged record
# byte-exact, and compaction must reclaim cleared namespaces' WAL space.
store-smoke:
	$(GO) run ./examples/storecrash

# Stream-plane smoke: faults on a raw TCP edge, observed from the client
# side. A campaign enumerates the stream grid over a protocol:tcp edge,
# a mid-stream sever and a bandwidth throttle are felt by a live client,
# and the relay's conn records attribute every fault. Exits non-zero on
# any mismatch.
l4-smoke:
	$(GO) run ./examples/l4

# Coverage-guided search smoke: the explorer must discover the fallback
# branch that never executes fault-free, exercise it with the revealing
# aborts replayed as prerequisites, prune EI-equivalent duplicates, and
# resume a killed session from the journal without re-running completed
# points. Self-verifying; exits non-zero on any missed claim.
explore-smoke:
	$(GO) run ./examples/explore

# Telemetry-plane smoke: an out-of-band scraper over a live fleet, a
# 150ms delay unit whose fault-window p99 must land strictly above
# baseline with a finite recovery time, a scrape-only quiet period that
# must add zero event-log records, journal round-trip into the
# scorecard's Telemetry section, and a gremlin top frame over the live
# fleet. Self-verifying; exits non-zero on any missed claim.
telemetry-smoke:
	$(GO) run ./examples/telemetry

# Dynamic-fleet smoke: a generated 100-service multi-replica fleet under
# a lease-based registry and open-loop Poisson load. A killed replica
# must produce a visible error window, be drained from every dependent's
# load-balancer pool by active health checks (with the registry marking
# it down), and the error ratio must recover; a short-TTL ghost instance
# must be targeted by the discovery-triggered reconciler while alive and
# dropped once its lease lapses. Self-verifying; exits non-zero on any
# missed claim.
fleet-smoke:
	$(GO) run ./examples/fleet

check: build vet test race
