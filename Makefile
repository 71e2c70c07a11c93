GO ?= go

.PHONY: build test race bench profile serve testnet load

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark suites; refreshes the committed BENCH_serve.json,
# BENCH_dist.json and BENCH_core.json baselines (median of 5 runs).
bench:
	sh scripts/bench.sh

# Localhost sweep fabric: 3 blackdp-serve workers + a -fleet coordinator,
# kill one worker mid-sweep, assert byte-equality with a fleetless baseline.
testnet:
	sh scripts/testnet.sh

# CPU + heap profiles of a live sweep via blackdp-serve -pprof.
profile:
	sh scripts/profile.sh

serve: build
	$(GO) run ./cmd/blackdp-serve

# Multi-tenant soak: closed-loop clients across tenants against an
# in-process server, latency percentiles + fairness skew.
load:
	$(GO) run ./cmd/blackdp-load -clients 300 -jobs 2 -tenants 3 -saturate
