#!/bin/sh
# check_parallel.sh — the parallel-fleet gate, three contracts:
#
#   1. identity: a routed N=4 open-loop fleet with -par 4 is byte-identical
#      to the serial -par 1 run — human report and rofs-metrics/v1 bundle
#      (metrics on: the windowed executor) — and so is a metrics-off
#      round-robin fleet (the batched executor);
#   2. reproduction: the parallel executor reproduces exactly under the
#      same seed (worker scheduling never leaks into results);
#   3. speedup sanity (hosts with >= 8 cores only): a par=16 N=16 fleet
#      must beat the serial executor by at least 2x wall clock — a
#      deliberately generous floor for a path that should scale near-
#      linearly on independent instances. Skipped on narrow hosts, where
#      there is nothing to fan out to; the tracked BENCH_*.json records
#      per-cell gomaxprocs so reviewers can see what a given artifact
#      could and could not demonstrate.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/rofsim" ./cmd/rofsim

# The golden fleet configuration (cluster determinism golden + check_cluster).
fleet="-workload TP -test app -instances 4 -routing least -snapshot-ms 250 \
	-admission token -token-capacity 32 -token-refill 300 \
	-rate 400 -max-sim 30000"

echo "check_parallel: -par 4 fleet matches -par 1 byte for byte"
# stderr carries the bundle-path note, which necessarily differs.
"$tmp/rofsim" $fleet -par 1 -metrics "$tmp/serial.json" >"$tmp/serial.txt" 2>/dev/null
"$tmp/rofsim" $fleet -par 4 -metrics "$tmp/par.json" >"$tmp/par.txt" 2>/dev/null
cmp "$tmp/serial.txt" "$tmp/par.txt" || {
	echo "check_parallel: FAIL: -par 4 report deviates from -par 1" >&2
	diff "$tmp/serial.txt" "$tmp/par.txt" >&2 || true
	exit 1
}
cmp "$tmp/serial.json" "$tmp/par.json" || {
	echo "check_parallel: FAIL: -par 4 metrics bundle deviates from -par 1" >&2
	exit 1
}

echo "check_parallel: metrics-off round-robin fleet -par 4 matches -par 1"
rr="-workload TP -test app -instances 4 -rate 400 -max-sim 30000"
"$tmp/rofsim" $rr -par 1 >"$tmp/rr1.txt" 2>/dev/null
"$tmp/rofsim" $rr -par 4 >"$tmp/rr4.txt" 2>/dev/null
cmp "$tmp/rr1.txt" "$tmp/rr4.txt" || {
	echo "check_parallel: FAIL: round-robin -par 4 report deviates from -par 1" >&2
	diff "$tmp/rr1.txt" "$tmp/rr4.txt" >&2 || true
	exit 1
}

echo "check_parallel: parallel fleet reproduces under the same seed"
out1=$("$tmp/rofsim" $fleet -par 4 2>&1)
out2=$("$tmp/rofsim" $fleet -par 4 2>&1)
if [ "$out1" != "$out2" ]; then
	echo "check_parallel: FAIL: seeded parallel runs diverged" >&2
	printf 'first:\n%s\nsecond:\n%s\n' "$out1" "$out2" >&2
	exit 1
fi

cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 8 ]; then
	echo "check_parallel: speedup sanity on $cores cores"
	big="-workload TP -test app -instances 16 -rate 1600 -max-sim 120000"
	t0=$(date +%s%N)
	"$tmp/rofsim" $big -par 1 >/dev/null 2>&1
	t1=$(date +%s%N)
	serial_ns=$((t1 - t0))
	t0=$(date +%s%N)
	"$tmp/rofsim" $big -par 16 >/dev/null 2>&1
	t1=$(date +%s%N)
	par_ns=$((t1 - t0))
	echo "check_parallel: serial ${serial_ns}ns, par=16 ${par_ns}ns"
	if [ $((par_ns * 2)) -gt "$serial_ns" ]; then
		echo "check_parallel: FAIL: par=16 under 2x faster than serial on $cores cores" >&2
		exit 1
	fi
else
	echo "check_parallel: skipping speedup sanity ($cores cores, need >= 8)"
fi

echo "check_parallel: all parallel-fleet checks passed"
