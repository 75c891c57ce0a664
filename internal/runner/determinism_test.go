// The determinism test lives in an external test package so it can drive
// the real experiment grids through the pool without an import cycle
// (experiments imports runner).
package runner_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/experiments"
	"rofs/internal/runner"
	"rofs/internal/workload"
)

// TestPoolParallelismIsDeterministic is the pool's core contract: because
// every core session owns its engine, RNG, disk system, and file-system
// state — file records and allocator slabs included — running a grid on
// several workers produces byte-identical outcomes to running it
// serially. The BenchScale Table 3 grid runs on eight workers outside
// -short. The TS allocation and application cells of the four Figure 6
// policies, which create and recreate the most files, run at a reduced
// scale on four workers in every mode, so the race detector sees
// concurrent file creation under every policy.
func TestPoolParallelismIsDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		short bool // runs under -short
		jobs  int
		specs func() ([]runner.Spec, error)
	}{
		{"table3", false, 8, func() ([]runner.Spec, error) {
			return experiments.Table3Specs(experiments.BenchScale())
		}},
		{"figure6-TS-creation", true, 4, func() ([]runner.Spec, error) {
			sc := experiments.BenchScale()
			sc.Div *= 8
			sc.MaxSimMS = 10_000
			wl, err := sc.Workload("TS")
			if err != nil {
				return nil, err
			}
			pols, err := sc.Figure6Policies("TS")
			if err != nil {
				return nil, err
			}
			var specs []runner.Spec
			for _, kind := range []core.TestKind{core.Allocation, core.Application} {
				for _, p := range pols {
					specs = append(specs, sc.Spec(p, wl, kind))
				}
			}
			return specs, nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && !c.short {
				t.Skip("grid run in short mode")
			}
			specs, err := c.specs()
			if err != nil {
				t.Fatal(err)
			}
			serial, err := runner.New(1).Run(context.Background(), specs)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := runner.New(c.jobs).Run(context.Background(), specs)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(parallel) {
				t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
			}
			for i := range serial {
				s := fmt.Sprintf("%#v", serial[i].Outcome)
				p := fmt.Sprintf("%#v", parallel[i].Outcome)
				if s != p {
					t.Errorf("%s: jobs=%d outcome diverged from jobs=1:\nserial:   %s\nparallel: %s",
						serial[i].Spec.Label(), c.jobs, s, p)
				}
			}
		})
	}
}

// TestTable3AssemblesFromPooledResults checks the experiments layer on
// top of the pool: the assembled rows match the raw pooled outcomes.
func TestTable3AssemblesFromPooledResults(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in short mode")
	}
	pool := runner.New(0)
	rows, err := experiments.Table3(context.Background(), pool, experiments.BenchScale())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := experiments.Table3Specs(experiments.BenchScale())
	if err != nil {
		t.Fatal(err)
	}
	// Same pool: every spec is already cached from the Table3 call.
	res, err := pool.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.Cached {
			t.Errorf("%s re-simulated; Table3 should have populated the cache", r.Spec.Label())
		}
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Row 0 assembles from the first workload's three runs.
	if rows[0].InternalPct != res[0].Outcome.Frag.InternalPct {
		t.Error("row 0 fragmentation does not match its pooled outcome")
	}
	if rows[0].AppPct != res[1].Outcome.Perf.Percent {
		t.Error("row 0 application throughput does not match its pooled outcome")
	}
	if rows[0].SeqPct != res[2].Outcome.Perf.Percent {
		t.Error("row 0 sequential throughput does not match its pooled outcome")
	}
}

// TestFleetParallelismComposesWithPool extends the determinism contract
// to intra-run parallelism: a fleet Spec with Cluster.Parallelism set
// runs its instance engines on worker goroutines *inside* one pool job,
// and the outcome must be byte-identical across every combination of
// pool jobs and fleet workers. Because Parallelism is excluded from
// Spec.Key, the serial and parallel Specs must also share one cache
// identity.
func TestFleetParallelismComposesWithPool(t *testing.T) {
	sc := experiments.BenchScale()
	wl, err := sc.Workload("TP")
	if err != nil {
		t.Fatal(err)
	}
	wl.Arrivals = &workload.Arrivals{RatePerSec: 300}
	base := sc.Spec(core.Buddy(), wl, core.Application)
	base.MaxSimMS = 10_000
	base.Cluster = cluster.Config{Instances: 4, Routing: cluster.RouteLeastLoaded, SnapshotMS: 250}

	par := base
	par.Cluster.Parallelism = 4
	if par.Key() != base.Key() {
		t.Fatalf("Parallelism changed the Spec key:\n%s\n%s", par.Key(), base.Key())
	}

	// Fresh pools per run: equal keys would otherwise serve the second
	// run from the first run's cache and prove nothing.
	serial, err := runner.New(1).Run(context.Background(), []runner.Spec{base})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runner.New(8).Run(context.Background(), []runner.Spec{par})
	if err != nil {
		t.Fatal(err)
	}
	// JSON rather than %#v: the fleet outcome carries a *ClusterReport,
	// which a verb dump renders as a pointer address.
	s, err := json.Marshal(struct {
		Perf  core.PerfResult
		Stats core.RunStats
	}{serial[0].Outcome.Perf, serial[0].Outcome.Stats})
	if err != nil {
		t.Fatal(err)
	}
	p, err := json.Marshal(struct {
		Perf  core.PerfResult
		Stats core.RunStats
	}{parallel[0].Outcome.Perf, parallel[0].Outcome.Stats})
	if err != nil {
		t.Fatal(err)
	}
	if string(s) != string(p) {
		t.Errorf("jobs=8 + par=4 fleet outcome diverged from jobs=1 serial:\nserial:   %s\nparallel: %s", s, p)
	}
}
