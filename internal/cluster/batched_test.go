package cluster

import (
	"encoding/json"
	"fmt"
	"testing"

	"rofs/internal/core"
	"rofs/internal/fault"
	"rofs/internal/metrics"
	"rofs/internal/workload"
)

// runTier runs one fleet on the given tier, with the batched tier's batch
// length overridden when k > 0, and returns its Perf and Stats bytes.
func runTier(t *testing.T, cfg core.Config, cc Config, tr tier, k int) []byte {
	t.Helper()
	d, err := newDeployment(cfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	if tr == tierBatched && d.tier != tierBatched {
		t.Fatalf("%s fleet picks tier %d, want the batched tier", cc, d.tier)
	}
	d.tier = tr
	if k > 0 {
		d.batchK = k
	}
	out, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		Perf  core.PerfResult
		Stats core.RunStats
	}{out.Perf, out.Stats})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchedMatchesWindowed: the batched tier must report exactly what
// the windowed tier reports — Perf and Stats byte for byte — at every
// worker count and batch length, across the ways a fleet run ends.
// One-second throughput windows let members stabilize within seconds, so
// stops fall mid-run and, at the default batch length, inside a batch.
func TestBatchedMatchesWindowed(t *testing.T) {
	base := fingerprintCfg(t)
	base.WindowMS = 1000

	// Poisson arrivals stop when every member has stabilized, members at
	// different grid points.
	poisson := base
	poisson.MaxSimMS = 120_000
	poisson.Workload.Arrivals = &workload.Arrivals{RatePerSec: 5}

	// A trace that runs out at 6 s: the fleet stops once it has drained.
	var spent []workload.TraceOp
	for k := 0; k < 300; k++ {
		spent = append(spent, workload.TraceOp{AtMS: float64(k) * 20, Client: k})
	}
	drain := base
	drain.Workload.Arrivals = &workload.Arrivals{Mode: workload.ArrivalsTrace, Trace: spent}

	// A trace that runs out while only some members are stable. Under
	// affinity routing, client 1 lands on member 1 and client 6 on member
	// 0: member 1 gets traffic in alternate seconds, so it never
	// stabilizes; members 0, 2 and 3 idle and stabilize at 3 s; at 8 s a
	// burst to member 0 ends the trace. Every member's own stop predicate
	// then holds (stable, or spent and idle) while the fleet's does not:
	// member 0 is stable but busy, member 1 idle but unstable.
	var partial []workload.TraceOp
	for s := 0; s < 8; s += 2 {
		for m := 0; m < 40; m++ {
			partial = append(partial, workload.TraceOp{AtMS: float64(s*1000 + m*20), Client: 1})
		}
	}
	for m := 0; m < 200; m++ {
		partial = append(partial, workload.TraceOp{AtMS: 8000, Client: 6})
	}
	some := base
	some.Workload.Arrivals = &workload.Arrivals{Mode: workload.ArrivalsTrace, Trace: partial}

	// Transient media errors on member 1 only, to the 30 s horizon.
	faulty := base
	faulty.Workload.Arrivals = &workload.Arrivals{RatePerSec: 100}
	faulty.Faults = fault.Scenario{TransientProb: 0.05}

	loads := []struct {
		name  string
		cfg   core.Config
		finst int
	}{
		{"poisson-stable", poisson, 0},
		{"trace-drains", drain, 0},
		{"trace-partly-stable", some, 0},
		{"fault", faulty, 1},
	}
	fronts := []struct {
		name string
		cc   Config
	}{
		{"rr", Config{Instances: 4}},
		{"affinity-token", Config{Instances: 4, Routing: RouteAffinity,
			Admission: AdmitTokenBucket, TokenCapacity: 64, TokenRefillPerSec: 200}},
	}
	for _, ld := range loads {
		for _, fe := range fronts {
			for _, syncMS := range []float64{0, 250} {
				cc := fe.cc
				cc.FaultInstance = ld.finst
				cc.SyncMS = syncMS
				t.Run(fmt.Sprintf("%s/%s/sync=%g", ld.name, fe.name, syncMS), func(t *testing.T) {
					want := runTier(t, ld.cfg, cc, tierWindowed, 0)
					for _, par := range []int{0, 2, 4} {
						for _, k := range []int{1, batchWindows} {
							c := cc
							c.Parallelism = par
							if got := runTier(t, ld.cfg, c, tierBatched, k); string(got) != string(want) {
								t.Errorf("par=%d K=%d: batched tier deviates from windowed\nwindowed: %s\nbatched:  %s",
									par, k, want, got)
							}
						}
					}
				})
			}
		}
	}
}

// TestPickTier: only open-loop, metrics-off fleets whose front end reads
// no instance state take the batched tier.
func TestPickTier(t *testing.T) {
	closed := fingerprintCfg(t)
	open := fingerprintCfg(t)
	open.Workload.Arrivals = &workload.Arrivals{RatePerSec: 100}
	withMetrics := open
	withMetrics.Metrics = metrics.New(1000)
	for _, tc := range []struct {
		name string
		cfg  core.Config
		cc   Config
		want tier
	}{
		{"closed", closed, Config{Instances: 2}, tierIndependent},
		{"closed-metrics", func() core.Config { c := closed; c.Metrics = metrics.New(1000); return c }(),
			Config{Instances: 2}, tierWindowed},
		{"rr", open, Config{Instances: 2}, tierBatched},
		{"affinity", open, Config{Instances: 2, Routing: RouteAffinity}, tierBatched},
		{"token", open, Config{Instances: 2, Admission: AdmitTokenBucket, TokenCapacity: 8, TokenRefillPerSec: 10}, tierBatched},
		{"least", open, Config{Instances: 2, Routing: RouteLeastLoaded}, tierWindowed},
		{"queue", open, Config{Instances: 2, Admission: AdmitQueue, QueueCap: 8}, tierWindowed},
		{"rr-metrics", withMetrics, Config{Instances: 2}, tierWindowed},
	} {
		d, err := newDeployment(tc.cfg, tc.cc)
		if err != nil {
			t.Fatal(err)
		}
		if d.tier != tc.want {
			t.Errorf("%s: tier %d, want %d", tc.name, d.tier, tc.want)
		}
	}
}
