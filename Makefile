GO ?= go

.PHONY: build test race bench profile serve testnet load

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# The repository benchmark: one perf/run.sh pass per BENCHMARK.json
# workload, each printing a record stamped with commit, Go version,
# GOMAXPROCS and CPU model (see perf/README.md).
bench:
	bash perf/run.sh --workload paper-fig4 --seed 1 --seconds 30 --trace 0
	bash perf/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0

# Localhost sweep fabric: blackdp-serve workers + a -fleet coordinator as
# real processes, one worker SIGKILLed mid-sweep, byte-equality with a
# fleetless baseline, fabric gauges and a cached replay checked.
testnet:
	$(GO) test -race -v -run TestTestnet ./cmd/blackdp-serve

# CPU + heap profiles of a live sweep via blackdp-serve -pprof.
profile:
	sh scripts/profile.sh

serve: build
	$(GO) run ./cmd/blackdp-serve

# Multi-tenant soak: closed-loop clients across tenants against an
# in-process server, latency percentiles + fairness skew.
load:
	$(GO) run ./cmd/blackdp-load -clients 300 -jobs 2 -tenants 3 -saturate
