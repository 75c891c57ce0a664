#!/bin/sh
# check_service.sh — the service-smoke gate: boot a real rofs-server on a
# random port, drive it with rofs-client, and assert the served numbers
# match the simulator's golden bench-scale values. Covers submission,
# result rendering, the pool cache, the /metrics scrape, and graceful
# SIGTERM shutdown.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
server_pid=""
cleanup() {
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "check_service: building rofs-server and rofs-client"
go build -o "$tmp/rofs-server" ./cmd/rofs-server
go build -o "$tmp/rofs-client" ./cmd/rofs-client

"$tmp/rofs-server" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -jobs 2 \
	2>"$tmp/server.log" &
server_pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "check_service: FAIL: server never wrote its address" >&2
		cat "$tmp/server.log" >&2
		exit 1
	fi
	sleep 0.1
done
ROFS_SERVER="http://$(cat "$tmp/addr")"
export ROFS_SERVER
echo "check_service: server is up at $ROFS_SERVER"

echo "check_service: served buddy/TS/app matches the golden value"
out=$("$tmp/rofs-client" run -policy buddy -workload TS -test app 2>&1)
echo "$out" | grep -q '21\.168060' || {
	echo "check_service: FAIL: buddy/TS/app throughput is not 21.168060:" >&2
	echo "$out" >&2
	exit 1
}

echo "check_service: fixed-4K size parsing reaches the simulator"
out=$("$tmp/rofs-client" run -policy fixed -block 4K -workload TS -test app 2>&1)
echo "$out" | grep -q '16\.316041' || {
	echo "check_service: FAIL: fixed-4K/TS/app throughput is not 16.316041:" >&2
	echo "$out" >&2
	exit 1
}

echo "check_service: duplicate submission is served from the pool cache"
out=$("$tmp/rofs-client" run -policy buddy -workload TS -test app 2>&1)
echo "$out" | grep -q 'memory-hit' || {
	echo "check_service: FAIL: identical resubmission was not cached:" >&2
	echo "$out" >&2
	exit 1
}

echo "check_service: /metrics exposes server counters and the pool mirror"
scrape=$(curl -fsS "$ROFS_SERVER/metrics")
for series in \
	'rofs_service_runs_admitted{component="rofs-server"} 3' \
	'rofs_service_runs_cached{component="rofs-server"} 1' \
	'rofs_pool_runs_submitted{component="rofs-server"} 3'; do
	echo "$scrape" | grep -qF "$series" || {
		echo "check_service: FAIL: /metrics missing '$series'" >&2
		echo "$scrape" >&2
		exit 1
	}
done
curl -fsS "$ROFS_SERVER/healthz" >/dev/null
curl -fsS "$ROFS_SERVER/readyz" >/dev/null

echo "check_service: SIGTERM drains and exits 0"
kill -TERM "$server_pid"
status=0
wait "$server_pid" || status=$?
server_pid=""
if [ "$status" -ne 0 ]; then
	echo "check_service: FAIL: server exited $status after SIGTERM" >&2
	cat "$tmp/server.log" >&2
	exit 1
fi
grep -q 'draining' "$tmp/server.log" || {
	echo "check_service: FAIL: server log shows no drain" >&2
	cat "$tmp/server.log" >&2
	exit 1
}

echo "check_service: ok"
