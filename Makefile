# Development workflow for the Fides reproduction.
#
# The profile target reproduces the workflow that found the serialization
# bottleneck this repo's binary codec removed: run a figure benchmark
# under the CPU profiler, then inspect the top hot functions.

GO ?= go
BENCH ?= BenchmarkFig13
PROFILE_DIR ?= .profiles

.PHONY: all build vet lint metriclint cryptolint test test-short test-race sim sim-sweep sim-determinism bench bench-fig12 bench-wal bench-pipeline bench-reads bench-gate fuzz metrics-smoke profile docs-check clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Mirrors the CI lint job. Staticcheck is pinned there; locally it is
# used when installed and skipped (with a note) when not.
lint: vet metriclint cryptolint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; CI runs honnef.co/go/tools/cmd/staticcheck@2025.1.1"; \
	fi

# Metric catalog drift gate: every registered fides_* instrument must be
# documented in docs/observability.md with the right kind, and vice versa.
metriclint:
	$(GO) run ./tools/metriclint

# The verification-plane boundary: no direct ed25519/cosi verify calls on
# the commit hot path outside internal/crypto's backends.
cryptolint:
	$(GO) run ./tools/cryptolint

# perfbench is a nested module that `./...` does not reach; vetting and
# short-testing it here keeps API changes from breaking the benchmark.
test:
	$(GO) test ./...
	cd perfbench && $(GO) vet . && $(GO) test -short .

test-short:
	$(GO) test -short ./...

# Race-detect the fast packages (mirrors the CI race job; the bench
# harness runs full workloads and is too slow under the race detector).
test-race:
	$(GO) test -race $$($(GO) list ./internal/... | grep -v /bench)

# Deterministic cluster simulation (docs/testing.md). `sim` is the CI
# smoke: every scenario × 10 seeds with the trace-determinism proof;
# `sim-sweep` is the nightly-scale sweep. Reproduce a failing seed with
#   go run ./cmd/fidessim -scenario <name> -seed <seed>
sim:
	$(GO) run ./cmd/fidessim -scenario all -seeds 10 -determinism

sim-sweep:
	$(GO) run ./cmd/fidessim -scenario all -seeds 300 -determinism \
		-json sim-report.json -failing sim-failing-seeds.txt

sim-determinism:
	$(GO) run ./cmd/fidessim -scenario all -seeds 5 -determinism -v

# The CI bench gate, runnable locally: re-measure the baseline
# configuration and compare against the committed report.
bench-gate:
	$(GO) run ./cmd/fidesbench -exp fig12,watch,crypto -requests 120 -latency 100us \
		-runs 1 -json /tmp/fides-bench-gate.json
	$(GO) run ./tools/benchgate -baseline BENCH_PR10.json \
		-current /tmp/fides-bench-gate.json

# Figure benchmarks (see bench_test.go; cmd/fidesbench runs the
# paper-scale sweeps as tables).
bench:
	$(GO) test -run xxx -bench 'BenchmarkFig1[2-5]' -benchtime 3x .

bench-fig12:
	$(GO) test -run xxx -bench 'BenchmarkFig12' -benchtime 3x .

# WAL append cost per ~100-txn block across fsync disciplines.
bench-wal:
	$(GO) test -run xxx -bench 'BenchmarkWALAppend' -benchtime 500x ./internal/durable

# Pipelined vs serial TFCommit under sustained closed-loop load
# (regenerates the BENCH_PR3.json sweep at reduced scale).
bench-pipeline:
	$(GO) run ./cmd/fidesbench -exp pipeline -requests 300 -runs 1

# Proof-carrying vs plain reads, read fraction × verified × batch
# (regenerates the BENCH_PR4.json sweep at reduced scale).
bench-reads:
	$(GO) run ./cmd/fidesbench -exp reads -requests 300 -runs 1

# Documentation health: every relative markdown link + #fragment resolves
# (offline; tools/linkcheck), and `go doc` renders every package (catches
# malformed doc comments the same way the CI docs job does).
docs-check:
	$(GO) run ./tools/linkcheck
	@for p in $$($(GO) list ./...); do $(GO) doc $$p >/dev/null || exit 1; done
	@echo "go doc: all packages render"

# Wire-codec and frame robustness: decoding must never panic on
# arbitrary bytes, and any accepted frame must round-trip (the frame
# carries the authenticated trace context — see docs/observability.md).
fuzz:
	$(GO) test -run xxx -fuzz FuzzWireDecode -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzParseFrame -fuzztime 30s ./internal/transport

# Multi-process observability smoke: 3 fides-server processes with
# -metrics-addr, a client workload, then scrape and assert the
# commit-path instruments moved (tools/metrics-smoke.sh).
metrics-smoke:
	sh tools/metrics-smoke.sh

profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench '$(BENCH)' -benchtime 3x -cpuprofile $(PROFILE_DIR)/cpu.prof -memprofile $(PROFILE_DIR)/mem.prof .
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/cpu.prof

clean:
	rm -rf $(PROFILE_DIR)
	$(GO) clean -testcache
