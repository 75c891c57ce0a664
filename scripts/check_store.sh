#!/bin/sh
# check_store.sh — the store-smoke gate: prove the disk tier end to end
# on real server processes. A server restarted over the same -store-dir
# must serve an identical resubmission from disk (disposition disk-hit)
# with a byte-identical result payload and metrics bundle; a kill -9 must
# not lose records that were already served; and every SIGTERM must
# drain, log it, and exit 0. A concurrent mix across a restart is
# TestServingUnderLoad/restart in internal/service.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
server_pid=""
cleanup() {
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "check_store: building rofs-server, rofs-client"
go build -o "$tmp/rofs-server" ./cmd/rofs-server
go build -o "$tmp/rofs-client" ./cmd/rofs-client

store="$tmp/store"

boot_server() { # boot_server NAME EXTRA-FLAGS...
	name=$1
	shift
	rm -f "$tmp/addr"
	"$tmp/rofs-server" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
		-store-dir "$store" "$@" 2>"$tmp/$name.server.log" &
	server_pid=$!
	i=0
	while [ ! -s "$tmp/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "check_store: FAIL: $name server never wrote its address" >&2
			cat "$tmp/$name.server.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	ROFS_SERVER="http://$(cat "$tmp/addr")"
	export ROFS_SERVER
}

stop_server() { # stop_server NAME
	kill -TERM "$server_pid"
	wait "$server_pid" || {
		echo "check_store: FAIL: $1 server exited non-zero after SIGTERM" >&2
		exit 1
	}
	server_pid=""
	grep -q 'draining' "$tmp/$1.server.log" || {
		echo "check_store: FAIL: $1 server log shows no drain" >&2
		cat "$tmp/$1.server.log" >&2
		exit 1
	}
}

# payload extracts the deterministic part of a run response: everything
# the simulator produced, none of the serving metadata.
payload() {
	jq -S '.result | {perf: .perf, stats: .stats, metrics: .metrics, wall: .wall_seconds}' "$1"
}

echo "check_store: cold server simulates and persists"
boot_server cold -jobs 2
"$tmp/rofs-client" run -policy buddy -workload TS -test app -json >"$tmp/first.json"
disp=$(jq -r '.result.disposition' "$tmp/first.json")
if [ "$disp" != "simulated" ]; then
	echo "check_store: FAIL: cold run disposition is '$disp', want simulated" >&2
	exit 1
fi
stop_server cold

echo "check_store: restarted server serves the identical bytes from disk"
boot_server warm -jobs 2
"$tmp/rofs-client" run -policy buddy -workload TS -test app -json >"$tmp/second.json"
disp=$(jq -r '.result.disposition' "$tmp/second.json")
if [ "$disp" != "disk-hit" ]; then
	echo "check_store: FAIL: warm-restart disposition is '$disp', want disk-hit" >&2
	cat "$tmp/warm.server.log" >&2
	exit 1
fi
payload "$tmp/first.json" >"$tmp/first.payload"
payload "$tmp/second.json" >"$tmp/second.payload"
diff -u "$tmp/first.payload" "$tmp/second.payload" || {
	echo "check_store: FAIL: disk-served payload diverged from the original run" >&2
	exit 1
}

echo "check_store: repeat on the warm server is a memory hit"
"$tmp/rofs-client" run -policy buddy -workload TS -test app -json >"$tmp/third.json"
disp=$(jq -r '.result.disposition' "$tmp/third.json")
if [ "$disp" != "memory-hit" ]; then
	echo "check_store: FAIL: repeat disposition is '$disp', want memory-hit" >&2
	exit 1
fi

echo "check_store: /metrics exposes the disk tier"
scrape=$(curl -fsS "$ROFS_SERVER/metrics")
for series in rofs_store_records rofs_pool_runs_disk_hit rofs_store_hits; do
	echo "$scrape" | grep -q "^$series" || {
		echo "check_store: FAIL: /metrics missing $series" >&2
		exit 1
	}
done

echo "check_store: kill -9 loses nothing that was already served"
"$tmp/rofs-client" run -policy fixed -block 4K -workload TS -test app -json >/dev/null
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
boot_server recover -jobs 2
"$tmp/rofs-client" run -policy fixed -block 4K -workload TS -test app -json >"$tmp/recover.json"
disp=$(jq -r '.result.disposition' "$tmp/recover.json")
if [ "$disp" != "disk-hit" ]; then
	echo "check_store: FAIL: post-kill disposition is '$disp', want disk-hit" >&2
	cat "$tmp/recover.server.log" >&2
	exit 1
fi
stop_server recover

echo "check_store: ok"
