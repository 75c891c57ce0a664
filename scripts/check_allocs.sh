#!/bin/sh
# check_allocs.sh — fail when a pinned benchmark allocates more per op
# than its budget in bench/allocs_budget.txt allows. The budgets are
# allocs/op as reported by -benchmem; the engine benchmarks are budgeted
# at zero, which is what keeps the simulator hot loop allocation-free, and
# so are the free-space maps' steady-size cycles and the allocation
# policies' grow/truncate cycles, and the disk system's steady-state
# request path. File creation (fs) is budgeted at one.
# allocs/op is a mean floored to an integer, so 0.99 allocations per op
# print as 0: a row budgeted at zero must also print 0 B/op.
set -eu
cd "$(dirname "$0")/.."

budget=bench/allocs_budget.txt
out=$(go test -run '^$' \
	-bench '^(BenchmarkEngine(SelfFire|Depth256)|BenchmarkAllocFreeCycle|BenchmarkInsertCoalesce|BenchmarkSetDeleteSteady|BenchmarkNextRemoveAdd|BenchmarkGrowTruncate|BenchmarkChurn|BenchmarkGrowThenExtents|BenchmarkCreateRecreate|BenchmarkRequestPath)$' \
	-benchmem -benchtime 0.5s ./internal/sim ./internal/container/... ./internal/alloc/... ./internal/fs ./internal/disk)
echo "$out"

fail=0
while read -r name max; do
	case "$name" in '' | '#'*) continue ;; esac
	# Benchmark lines: name [-GOMAXPROCS]  N  x ns/op  y B/op  z allocs/op
	row=$(echo "$out" | awk -v n="$name" \
		'$1 ~ ("^" n "(-[0-9]+)?$") && $NF == "allocs/op" {print $(NF-1), $(NF-3)}' |
		sort -k1,1nr -k2,2nr | head -1)
	if [ -z "$row" ]; then
		echo "check_allocs: benchmark $name did not run" >&2
		fail=1
		continue
	fi
	got=${row% *}
	bytes=${row#* }
	if [ "$got" -gt "$max" ]; then
		echo "check_allocs: FAIL $name: $got allocs/op exceeds budget $max" >&2
		fail=1
	elif [ "$max" -eq 0 ] && [ "$bytes" -gt 0 ]; then
		echo "check_allocs: FAIL $name: $bytes B/op at a budget of 0 allocs/op" >&2
		fail=1
	else
		echo "check_allocs: ok   $name: $got allocs/op, $bytes B/op (budget $max)"
	fi
done <"$budget"

# The parallel fleet executor's budget is differential rather than a
# benchmark line: a par=4 run must not allocate per event over the
# byte-identical serial schedule (the model's own allocations cancel).
# The test carries the threshold; see internal/cluster/alloc_test.go.
echo "check_allocs: parallel fleet executor overhead"
if go test -run '^TestParallelPathAllocOverhead$' ./internal/cluster; then
	echo "check_allocs: ok   parallel executor adds ~0 allocs/event"
else
	echo "check_allocs: FAIL parallel executor allocates over serial" >&2
	fail=1
fi
exit $fail
