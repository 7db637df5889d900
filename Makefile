GO ?= go
# bench-smoke pipes through benchmedian; pipefail keeps a failing
# `go test` from being masked by the pipe.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# bench-smoke knobs: medians of COUNT runs at BENCHTIME each. The
# SessionAssert numbers are high-variance (resampling rounds land on
# some iterations and not others); single-run numbers are noise, so the
# smoke always reports medians via cmd/benchmedian.
BENCHTIME ?= 1x
COUNT     ?= 3

# bench-throughput knobs: the -cpu list the multi-core rig runs at, and
# an optional JSON summary path for CI artifacts (empty = text only).
BENCHCPUS ?= 1,2,4
BENCHJSON ?=

# bench-suggest knobs: optional JSON summary path (the CI multicore job
# writes BENCH_suggest.json from it; empty = text only) and the
# iteration count. Suggest-per-assert is a warm steady-state metric —
# one iteration measures only the cold first rank — so the default runs
# enough asserts to reach the pruned path's steady state.
SUGGESTJSON ?=
SUGGESTTIME ?= 200x

# fuzz knob: how long `make fuzz` mutates each target.
FUZZTIME ?= 20s

.PHONY: all vet fmt-check lint build test bench bench-smoke bench-suggest bench-throughput race examples cli-smoke fuzz

all: vet fmt-check lint build test

vet:
	$(GO) vet ./...

# Formatting gate: lists every file gofmt would change, across the whole
# tree (perfbench/ included), and fails if there is any.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Custom invariant analyzers (lockorder, determinism, snapshotsafe,
# fsseam — see DESIGN.md, "Invariant enforcement"). Standalone mode
# loads packages itself; the same binary also speaks the vet unit-
# checker protocol, so editors and vet caching can drive it with
#   go build -o bin/lint ./cmd/lint && go vet -vettool=$(PWD)/bin/lint ./...
# List every justified suppression with `go run ./cmd/lint -suppressions`.
lint:
	$(GO) run ./cmd/lint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full micro- and experiment-benchmark run (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Hot-path benchmark smoke (a superset of the CI bench step): COUNT
# repetitions at BENCHTIME each, reported as per-benchmark medians.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkInformationGain|BenchmarkSamplePerEmission|BenchmarkSessionAssert|BenchmarkMaximize|BenchmarkRepair|BenchmarkWalkStep' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian
	# The concurrent-serving benchmark measures whole schedules (seconds
	# per op at C=2048), so the smoke runs only the C=512 case.
	$(GO) test -run '^$$' -bench 'BenchmarkConcurrentAssertMultiComp/C=512' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian
	# Per-unit instantiation on a goal-driven multicomp C=256 session (the
	# path instantiate_ms runs; BenchmarkInstantiate times only the
	# monolithic heuristic).
	$(GO) test -run '^$$' -bench 'BenchmarkSessionInstantiate' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian
	# Re-partition cost per assertion along a goal-driven dense-512 history.
	$(GO) test -run '^$$' -bench 'BenchmarkPieceSplit' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) ./internal/core | $(GO) run ./cmd/benchmedian
	# Default chunked refill vs a pinned single-chunk budget (multicomp, dense).
	$(GO) test -run '^$$' -bench 'BenchmarkSessionAssertBudget' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian
	# Topology op cost: one late schema / one component-merging
	# candidate batch on a live session vs recompiling the world, growth
	# beside a carried dense single-component session, and one retire on
	# a fresh and on an already-owned dense session.
	$(GO) test -run '^$$' -bench 'BenchmarkAddSchema|BenchmarkAddCandidatesMerge|BenchmarkAddCandidatesIsolated|BenchmarkRetireCandidate' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian
	# Lazy top-k ranking: suggest-per-assert (assert off the clock), the
	# first Suggest on an all-unranked session (construction off the
	# clock), plus the core-layer gain-pass microbenchmark, which keeps
	# the pruned-vs-exhaustive ratio measurable.
	$(GO) test -run '^$$' -bench 'BenchmarkSuggest(Hot|Cold)' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian
	$(GO) test -run '^$$' -bench 'BenchmarkTopGainPass' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) ./internal/core | $(GO) run ./cmd/benchmedian
	# Session setup and reopen: construction (per-component backends),
	# LoadSession's construction under a saved history, and a store
	# tenant's evict + reopen, which no step benchmark measures.
	$(GO) test -run '^$$' -bench 'BenchmarkNewSession|BenchmarkLoadSession|BenchmarkStoreReopen' -benchmem -benchtime $(BENCHTIME) -count $(COUNT) . | $(GO) run ./cmd/benchmedian

# Multi-core throughput rig: the Throughput benchmarks at each GOMAXPROCS
# in BENCHCPUS, reported as medians plus a scaling table (ratio vs the
# lowest cpu). Set BENCHJSON=path.json to also emit the machine-readable
# summary cmd/benchmedian -json produces (CI archives these).
bench-throughput:
	$(GO) test -run '^$$' -bench 'BenchmarkThroughput' -cpu $(BENCHCPUS) -benchtime $(BENCHTIME) -count $(COUNT) . | \
		$(GO) run ./cmd/benchmedian $(if $(BENCHJSON),-json $(BENCHJSON))

# Lazy top-k acceptance rig: BenchmarkSuggestHot (warm) and
# BenchmarkSuggestCold (first Suggest, every component unranked) medians
# on the multicomp and hub-heavy merged profiles. Set
# SUGGESTJSON=path.json for the machine-readable summary (CI archives it
# as BENCH_suggest.json).
bench-suggest:
	$(GO) test -run '^$$' -bench 'BenchmarkSuggest(Hot|Cold)' -benchmem -benchtime $(SUGGESTTIME) -count $(COUNT) . | \
		$(GO) run ./cmd/benchmedian $(if $(SUGGESTJSON),-json $(SUGGESTJSON))

# Run every example main once — a smoke test that the public API
# surface the examples exercise keeps working end to end.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run "./$$d" > /dev/null; done; echo "examples OK"

# End-to-end smoke of cmd/reconcile's persistence paths, in a throwaway
# directory: -save then -resume, -store twice (the second run must
# resume the first run's 10 assertions, and the session directory must
# then hold wal.log and no snapshot.json), and -grow with
# cmd/reconcile/testdata/grow.json in plain and -store mode.
cli-smoke:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/datagen" ./cmd/datagen; \
	$(GO) build -o "$$tmp/reconcile" ./cmd/reconcile; \
	"$$tmp/datagen" -profile bp -scale 0.3 -seed 1 -out "$$tmp/bp.json" 2> /dev/null; \
	run() { want="$$1"; shift; echo "== reconcile $$*"; \
		"$$tmp/reconcile" -in "$$tmp/bp.json" -oracle -budget 10 "$$@" > "$$tmp/out.txt" || { cat "$$tmp/out.txt"; exit 1; }; \
		grep -qF "$$want" "$$tmp/out.txt" || { cat "$$tmp/out.txt"; echo "missing: $$want"; exit 1; }; }; \
	run "session saved to" -save "$$tmp/saved.json"; \
	run "resumed session: " -resume "$$tmp/saved.json"; \
	run "precision" -store "$$tmp/store"; \
	run 'resumed session "default": 10 assertions on record' -store "$$tmp/store"; \
	[ "$$(ls "$$tmp/store/default")" = wal.log ] || { ls -l "$$tmp/store/default"; echo "store session directory must hold just wal.log"; exit 1; }; \
	run "grew network: now 3 schemas, 20 candidates (1 retired)" -grow cmd/reconcile/testdata/grow.json; \
	run "grew network: now 3 schemas, 20 candidates (1 retired)" -grow cmd/reconcile/testdata/grow.json -store "$$tmp/grown"; \
	run 'resumed session "default": 10 assertions on record' -store "$$tmp/grown"; \
	echo "cli-smoke OK"

# Native-fuzz smoke over the two decoders that consume externally
# produced bytes — the session_io decoder (LoadSession) and the WAL
# recovery scan (arbitrary crash-damaged log images) — plus the
# dynamic-topology differential: random AddSchema/AddCandidates/
# RetireCandidate/Assert interleavings checked bit-for-bit against
# from-scratch construction. FUZZTIME per target; crashes land in
# testdata/fuzz/ as regression cases.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoadSession -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzWALRecover -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzIncrementalBuild -fuzztime $(FUZZTIME) .
