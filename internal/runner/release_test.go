package runner_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/experiments"
	"rofs/internal/metrics"
	"rofs/internal/runner"
	"rofs/internal/workload"
)

// TestFinishedRunReleasesSimulator holds a finished metrics-on run's
// Outcome, registry included, and requires its simulator to become
// unreachable. The sentinel is the workload's Arrivals: once the run is
// set up, only the simulator references it, so it is finalized exactly
// when the simulator is collected. A registry that kept the samplers it
// ran during the run would keep the simulator, and the sentinel, alive
// for as long as the Outcome is held: by a caller, or by a pool's cache.
func TestFinishedRunReleasesSimulator(t *testing.T) {
	rows := []struct {
		name  string
		fleet bool
		// run performs sp and returns its Outcome and anything else that
		// must stay alive while the simulator is expected to be collected.
		run func(sp runner.Spec) (core.Outcome, any, error)
	}{
		{"core-run", false, func(sp runner.Spec) (core.Outcome, any, error) {
			cfg := sp.Config()
			cfg.Metrics = metrics.New(1000)
			out, err := core.Run(cfg, sp.Kind)
			return out, nil, err
		}},
		{"fleet", true, func(sp runner.Spec) (core.Outcome, any, error) {
			cfg := sp.Config()
			cfg.Metrics = metrics.New(1000)
			out, err := cluster.Run(cfg, sp.Cluster, sp.Kind)
			return out, nil, err
		}},
		{"pool-cache", false, func(sp runner.Spec) (core.Outcome, any, error) {
			p := runner.New(1)
			p.MetricsIntervalMS = 1000
			res, err := p.Run(context.Background(), []runner.Spec{sp})
			if err != nil {
				return core.Outcome{}, nil, err
			}
			if st := p.Stats(); st.CacheEntries != 1 {
				return core.Outcome{}, nil, fmt.Errorf("the pool caches %d entries, want 1", st.CacheEntries)
			}
			return res[0].Outcome, p, nil
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			out, keep, released := runWithSentinel(t, row.fleet, row.run)
			if out.Metrics == nil || out.Metrics.Samples() == 0 {
				t.Fatal("the run returned no sampled registry")
			}
			if row.fleet && out.Perf.Cluster == nil {
				t.Fatal("the fleet row ran no fleet")
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				select {
				case <-released:
					runtime.KeepAlive(out)
					runtime.KeepAlive(keep)
					return
				case <-time.After(10 * time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatal("the finished run's simulator is still reachable while its Outcome is held")
				}
			}
		})
	}
}

// runWithSentinel runs a short open-loop TP application Spec (a two-node
// fleet when fleet is set) through run, and returns the run's Outcome,
// what run asked to keep alive, and a channel closed when the Spec's
// Arrivals is finalized. The Spec itself does not outlive this call.
func runWithSentinel(t *testing.T, fleet bool, run func(runner.Spec) (core.Outcome, any, error)) (core.Outcome, any, chan struct{}) {
	t.Helper()
	sc := experiments.BenchScale()
	wl, err := sc.Workload("TP")
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	arr := &workload.Arrivals{RatePerSec: 200}
	runtime.SetFinalizer(arr, func(*workload.Arrivals) { close(released) })
	wl.Arrivals = arr
	sp := sc.Spec(core.Buddy(), wl, core.Application)
	sp.MaxSimMS = 5_000
	if fleet {
		sp.Cluster = cluster.Config{Instances: 2}
	}
	out, keep, err := run(sp)
	if err != nil {
		t.Fatal(err)
	}
	return out, keep, released
}
