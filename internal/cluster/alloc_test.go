package cluster_test

import (
	"runtime"
	"testing"

	"rofs/internal/cluster"
	"rofs/internal/core"
)

// fleetAllocStats runs one metrics-off fleet to a 120s horizon and
// returns the heap allocations and engine events the run cost.
func fleetAllocStats(t *testing.T, cc cluster.Config, open bool) (uint64, uint64) {
	t.Helper()
	cfg := benchCfg(t)
	if open {
		cfg = openLoop(cfg, 400)
	}
	cfg.MaxSimMS = 120_000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := cluster.Run(cfg, cc, core.Application)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, out.Stats.Events
}

// TestParallelPathAllocOverhead extends the repo's allocation budget to
// the parallel fleet executor: with metrics off, fanning the instance
// engines across workers must not add per-event allocations over the
// serial schedule.
//
// The measurement exploits byte identity. A serial (par=0) and a
// parallel (par=4) run of the same configuration execute the exact same
// operation sequence, so the model's own allocations — allocation-policy
// free-list nodes, userOp pool growth, segment buffers — are identical
// and cancel in the difference; what remains is purely the executor's
// overhead (the worker pool's goroutines, staging, merge and dispatch
// buffers growing to their peaks). That overhead must amortize to well
// under 0.05 allocs/event; a per-event allocation on the parallel hot
// path (a closure or buffer grown per dispatch instead of pooled) would
// show up at ≥1 and fail loudly. Merge-time work (latency histogram
// merges, report assembly) is identical on both sides and cancels too.
func TestParallelPathAllocOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run fleet measurement in short mode")
	}
	const tol = 0.05
	cases := []struct {
		name   string
		serial cluster.Config
		open   bool
	}{
		// Independent tier: closed-loop fleet, engines run to the horizon
		// with no windows at all — overhead is the pool's goroutines,
		// nothing per event.
		{"closed", cluster.Config{Instances: 4}, false},
		// Batched tier, token-bucket admission on a 500 ms grid: staging
		// lists, lane buffers and dispatch events are reused across
		// batches, so rounds of the pool cost no allocations.
		{"open", cluster.Config{Instances: 4, Admission: cluster.AdmitTokenBucket,
			TokenCapacity: 32, TokenRefillPerSec: 300, SyncMS: 500}, true},
		// Batched tier, round-robin admit-all on the default 100 ms grid.
		{"batched", cluster.Config{Instances: 4}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			par := tc.serial
			par.Parallelism = 4
			aSerial, eSerial := fleetAllocStats(t, tc.serial, tc.open)
			aPar, ePar := fleetAllocStats(t, par, tc.open)
			if eSerial != ePar {
				t.Fatalf("schedules diverged: serial fired %d events, parallel %d", eSerial, ePar)
			}
			// Signed: the parallel run can come in a hair under serial on
			// runtime background noise when the true overhead is zero.
			overhead := int64(aPar) - int64(aSerial)
			if overhead < 0 {
				overhead = 0
			}
			perEvent := float64(overhead) / float64(ePar)
			t.Logf("executor overhead %.4f allocs/event (%d allocs over %d events)",
				perEvent, overhead, ePar)
			if perEvent > tol {
				t.Errorf("parallel path allocates: %.4f allocs/event over serial exceeds %.2f", perEvent, tol)
			}
		})
	}
}
