#!/bin/sh
# Stand up a localhost sweep fabric — N plain blackdp-serve workers plus a
# blackdp-serve coordinator sharding over them — run a distributed sweep,
# kill one worker mid-flight, and verify the surviving fleet still returns
# bytes identical to a fleetless baseline server. This is the manual twin
# of TestTestnetKillWorkerMidSweep (cmd/blackdp-serve/testnet_test.go),
# which CI runs under -race.
#
#   scripts/testnet.sh [workers] [reps]    # defaults: 3 workers, 60 reps
#
# Exits 0 and prints PASS when the distributed payload matches the
# baseline; any divergence, refused job or dead coordinator exits 1.
set -eu
cd "$(dirname "$0")/.."
workers="${1:-3}"
reps="${2:-60}"

tmp="$(mktemp -d)"
pids=""
cleanup() {
	for pid in $pids; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "testnet: building blackdp-serve"
go build -o "$tmp/blackdp-serve" ./cmd/blackdp-serve

# await_addr <logfile>: block until the process announces its port.
await_addr() {
	for _ in $(seq 1 100); do
		addr="$(sed -n 's/.*listening on //p' "$1" | head -n 1)"
		[ -n "$addr" ] && { echo "$addr"; return 0; }
		sleep 0.1
	done
	echo "testnet: no listening line in $1" >&2
	return 1
}

fleet=""
first_worker_pid=""
i=1
while [ "$i" -le "$workers" ]; do
	"$tmp/blackdp-serve" -addr 127.0.0.1:0 >"$tmp/worker$i.log" 2>&1 &
	pid=$!
	pids="$pids $pid"
	[ "$i" -eq 1 ] && first_worker_pid="$pid"
	addr="$(await_addr "$tmp/worker$i.log")"
	fleet="${fleet}${fleet:+,}http://$addr"
	echo "testnet: worker $i on $addr"
	i=$((i + 1))
done

"$tmp/blackdp-serve" -addr 127.0.0.1:0 -fleet "$fleet" -chunk-reps 3 >"$tmp/coord.log" 2>&1 &
pids="$pids $!"
coord="$(await_addr "$tmp/coord.log")"
echo "testnet: coordinator on $coord (fleet: $fleet)"

"$tmp/blackdp-serve" -addr 127.0.0.1:0 >"$tmp/baseline.log" 2>&1 &
pids="$pids $!"
baseline="$(await_addr "$tmp/baseline.log")"
echo "testnet: baseline on $baseline"

body="{\"kind\":\"sweep\",\"reps\":$reps,\"config\":{\"Seed\":5,\"HighwayLengthM\":4000,\"Vehicles\":30,\"AttackerCluster\":2,\"DataPackets\":5,\"MaxSimTime\":45000000000,\"CryptoScheme\":\"placeholder\"}}"

echo "testnet: baseline sweep ($reps reps, single node)"
curl -sfN "http://$baseline/v1/jobs" -d "$body" | tail -n 1 >"$tmp/want.json"

echo "testnet: distributed sweep, killing worker 1 mid-flight"
(
	# Kill the first worker once the stream shows real progress.
	curl -sfN "http://$coord/v1/jobs" -d "$body" | while IFS= read -r line; do
		printf '%s\n' "$line"
		case "$line" in
		*'"type":"progress"'*)
			if [ -n "$first_worker_pid" ] && [ ! -e "$tmp/killed" ]; then
				kill -9 "$first_worker_pid" 2>/dev/null || true
				: >"$tmp/killed"
				echo "testnet: worker 1 (pid $first_worker_pid) killed" >&2
			fi
			;;
		esac
	done
) | tail -n 1 >"$tmp/got.json"

if [ ! -s "$tmp/got.json" ]; then
	echo "testnet: FAIL — distributed sweep returned nothing" >&2
	exit 1
fi
if ! cmp -s "$tmp/want.json" "$tmp/got.json"; then
	echo "testnet: FAIL — distributed payload differs from baseline" >&2
	diff "$tmp/want.json" "$tmp/got.json" | head -5 >&2 || true
	exit 1
fi

echo "testnet: fabric metrics after the kill:"
curl -s "http://$coord/v1/metrics" | grep '^blackdp_dist_' | sed 's/^/  /'
echo "testnet: PASS — byte-identical across worker death ($workers workers, $reps reps)"
