# Convenience targets for the CLA reproduction. `make check` is the
# tier-1 verification from ROADMAP.md plus the race extras; CI and
# pre-merge runs should use it.

GO ?= go

.PHONY: all build check test vet fmt race bench bench-smoke bench-check fuzz-smoke clean

all: build

build:
	$(GO) build ./...

# gofmt must be a no-op; print the offending files and fail otherwise.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race extras: the parallel pipeline, the wave fixpoints, the checks
# engine, the shared set layer, the query-serving layer, the metrics
# layer, the incremental pipeline, the dependence analysis the server
# runs per query, and the frontend layers whose header memo, tokens and
# syntax trees the compile workers share must stay race-clean and
# deterministic at any -j.
race:
	$(GO) test -race ./internal/core ./internal/driver ./internal/linker ./internal/parallel ./internal/pts/worklist ./internal/checks ./internal/pts/set ./internal/serve ./internal/extmodel ./internal/obs ./internal/snapfile ./internal/incr ./internal/depend ./internal/cpp ./internal/cc ./internal/frontend

check: build fmt vet test race

bench:
	$(GO) test -bench=. -benchmem ./internal/bench

# One-iteration benchmark compile-and-run: catches benchmarks that rot
# (build failures, panics) without paying for stable timings.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./internal/pts/set ./internal/core

# Perf regression gate: re-run the corpus-conformance, cold-start and
# incremental-refresh tables and compare their timings against the
# committed BENCH_corpus.json / BENCH_snapshot.json / BENCH_incr.json
# baselines. The tolerance is generous because CI hosts differ from the
# baseline host; it still catches order-of-magnitude regressions. Pass
# CHECK_FLAGS="-fresh-dir out" to keep the fresh rows as artifacts.
TOLERANCE ?= 9
bench-check:
	$(GO) run ./cmd/clabench -table 13 -check -tolerance $(TOLERANCE) $(CHECK_FLAGS)
	$(GO) run ./cmd/clabench -table 14 -scale 1.0 -j 4 -check -tolerance $(TOLERANCE) $(CHECK_FLAGS)
	$(GO) run ./cmd/clabench -table 15 -scale 1.0 -j 4 -check -tolerance $(TOLERANCE) $(CHECK_FLAGS)

# Short fuzz runs over the binary object-file reader, the trace encoder,
# the adaptive set layer, the extern-model path, the solved-snapshot
# reader, the dependence analysis and the C frontend: corrupt inputs must
# error (never panic or corrupt output), set operations must match their
# map oracles, the extern models must stay monotone and deterministic on
# arbitrary translation units, dependence queries must match their
# reference implementation byte for byte, and a unit must compile the
# same with or without a header memo shared with another unit.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzReader -fuzztime=10s ./internal/objfile
	$(GO) test -run=^$$ -fuzz=FuzzTrace -fuzztime=10s ./internal/obs
	$(GO) test -run=^$$ -fuzz=FuzzSetOps -fuzztime=10s ./internal/pts/set
	$(GO) test -run=^$$ -fuzz=FuzzExterns -fuzztime=10s ./internal/extmodel
	$(GO) test -run=^$$ -fuzz=FuzzSnapshot -fuzztime=10s ./internal/snapfile
	$(GO) test -run=^$$ -fuzz=FuzzDepend -fuzztime=10s ./internal/depend
	$(GO) test -run=^$$ -fuzz=FuzzFrontend -fuzztime=10s ./internal/frontend

clean:
	$(GO) clean ./...
