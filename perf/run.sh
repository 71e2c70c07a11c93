#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the repository root:
#
#   bash perf/run.sh --workload paper-fig4 --seed 1 --seconds 20 --trace 0
#
# --trace 0 builds and runs perf (the gating, untraced mode); --trace 1
# builds and runs perf-traced instead, so a break in the traced mode's hooks
# into internal packages can never break the untraced measurements.
# Everything the build writes — Go build cache, binaries, temporary files —
# stays under .bench_build/ in the repository root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perf/go.mod ] || [ ! -d cmd/blackdp-serve ]; then
	echo "perf/run.sh: run from the repository root (go.mod, perf/ and cmd/ must be present)" >&2
	exit 2
fi

trace=0
workload=""
prev=""
for arg in "$@"; do
	case "$prev" in
	--trace | -trace) trace="$arg" ;;
	--workload | -workload) workload="$arg" ;;
	esac
	prev="$arg"
done

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

main=perf
if [ "$trace" = 1 ]; then
	main=perf-traced
fi
(cd perf && go build -o "$out/bin/$main" "./cmd/$main")
serve_args=()
if [ "$workload" = serve-mixed ]; then
	go build -o "$out/bin/blackdp-serve" ./cmd/blackdp-serve
	serve_args=(--serve-bin "$out/bin/blackdp-serve")
fi
exec "$out/bin/$main" --root "$root" "${serve_args[@]}" "$@"
