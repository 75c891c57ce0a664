package cluster_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/metrics"
)

// marshalOutcome renders everything a fleet run reports — perf result,
// cluster report, and run stats — for byte-level comparison across
// execution modes.
func marshalOutcome(t *testing.T, out core.Outcome) []byte {
	t.Helper()
	b, err := json.MarshalIndent(struct {
		Perf  core.PerfResult
		Stats core.RunStats
	}{out.Perf, out.Stats}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenFleet is the N=4 routed open-loop configuration pinned by
// testdata/fleet_n4_tp_seed42.golden.
func goldenFleet() cluster.Config {
	return cluster.Config{
		Instances:         4,
		Routing:           cluster.RouteLeastLoaded,
		SnapshotMS:        250,
		Admission:         cluster.AdmitTokenBucket,
		TokenCapacity:     32,
		TokenRefillPerSec: 300,
	}
}

// The routed open-loop fleet golden must reproduce byte-identically at
// every Parallelism value: worker count is an execution knob, never a
// model knob.
func TestParallelReproducesFleetGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fleet_n4_tp_seed42.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2, 4, 16} {
		cc := goldenFleet()
		cc.Parallelism = par
		out, err := cluster.Run(openLoop(benchCfg(t), 400), cc, core.Application)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		got, err := json.MarshalIndent(out.Perf, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if !bytes.Equal(got, want) {
			t.Errorf("par=%d: fleet report deviates from the golden", par)
		}
	}
}

// The round-robin, admit-all open-loop fleet golden pins the batched tier
// (a front end that reads no instance state). It was recorded with the
// windowed executor before the batched tier existed and must reproduce at
// every Parallelism. With default stabilization this overloaded fleet
// never stabilizes and runs to its 30 s horizon; the in-batch stops are
// covered by TestBatchedMatchesWindowed.
func TestRoundRobinFleetGolden(t *testing.T) {
	golden := filepath.Join("testdata", "fleet_n4_rr_tp_seed42.golden")
	for _, par := range []int{0, 2, 4} {
		out, err := cluster.Run(openLoop(benchCfg(t), 400),
			cluster.Config{Instances: 4, Parallelism: par}, core.Application)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		got := append(marshalOutcome(t, out), '\n')
		if *update && par == 0 {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("par=%d: round-robin fleet deviates from %s:\n%s", par, golden, got)
		}
	}
}

// A closed-loop N=4 fleet (the embarrassingly-parallel tier: per-instance
// engines run to their own stops with no windows at all) must produce the
// identical outcome serial and parallel.
func TestParallelMatchesSerialClosedLoop(t *testing.T) {
	run := func(par int) []byte {
		cc := cluster.Config{Instances: 4, Admission: cluster.AdmitQueue, QueueCap: 1 << 20, Parallelism: par}
		out, err := cluster.Run(benchCfg(t), cc, core.Application)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return marshalOutcome(t, out)
	}
	serial := run(0)
	for _, par := range []int{2, 4} {
		if got := run(par); !bytes.Equal(got, serial) {
			t.Errorf("par=%d closed-loop outcome deviates from serial:\nserial: %s\npar:    %s", par, serial, got)
		}
	}
}

// With metrics on, fleets take the windowed tier (samples are barriers);
// report and full rofs-metrics/v1 bundle must match serial byte for byte,
// open- and closed-loop.
func TestParallelMatchesSerialMetricsBundle(t *testing.T) {
	for _, tc := range []struct {
		name string
		open bool
	}{{"open", true}, {"closed", false}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(par int) ([]byte, []byte) {
				cfg := benchCfg(t)
				if tc.open {
					cfg = openLoop(cfg, 400)
				}
				cfg.Metrics = metrics.New(1000)
				cc := goldenFleet()
				cc.Parallelism = par
				out, err := cluster.Run(cfg, cc, core.Application)
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				var bundle bytes.Buffer
				if err := out.Metrics.Write(&bundle, metrics.JSON); err != nil {
					t.Fatal(err)
				}
				return marshalOutcome(t, out), bundle.Bytes()
			}
			serialOut, serialBundle := run(1)
			parOut, parBundle := run(4)
			if !bytes.Equal(parOut, serialOut) {
				t.Errorf("parallel outcome deviates from serial")
			}
			if !bytes.Equal(parBundle, serialBundle) {
				t.Errorf("parallel metrics bundle deviates from serial (%d vs %d bytes)",
					len(parBundle), len(serialBundle))
			}
		})
	}
}

// Extra synchronization barriers must be invisible to a fleet whose only
// mid-run coupling reads sit on the snapshot grid: the least-loaded
// staleness clock is defined in simulated time (multiples of SnapshotMS),
// not in window counts, so shrinking the lookahead window below the
// snapshot interval changes nothing.
func TestSnapshotGridIndependentOfWindowing(t *testing.T) {
	run := func(syncMS float64, par int) []byte {
		cc := goldenFleet()
		cc.SyncMS = syncMS
		cc.Parallelism = par
		out, err := cluster.Run(openLoop(benchCfg(t), 400), cc, core.Application)
		if err != nil {
			t.Fatalf("sync=%g par=%d: %v", syncMS, par, err)
		}
		return marshalOutcome(t, out)
	}
	base := run(0, 0)
	for _, tc := range []struct {
		syncMS float64
		par    int
	}{{50, 0}, {50, 4}, {125, 2}} {
		if got := run(tc.syncMS, tc.par); !bytes.Equal(got, base) {
			t.Errorf("sync=%g par=%d: snapshot-routed fleet result changed with the window grid",
				tc.syncMS, tc.par)
		}
	}
}

// Property: merged fleet stats are a function of the configuration alone,
// independent of worker count — checked across random Parallelism values
// on an open-loop bounded-queue fleet (the config whose coupling is the
// most window-sensitive).
func TestFleetStatsWorkerCountProperty(t *testing.T) {
	cfg := openLoop(benchCfg(t), 300)
	cfg.MaxSimMS = 10_000
	cc := cluster.Config{Instances: 3, Admission: cluster.AdmitQueue, QueueCap: 48}
	ref, err := cluster.Run(cfg, cc, core.Application)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalOutcome(t, ref)
	prop := func(par uint8) bool {
		c := cc
		c.Parallelism = int(par % 9)
		out, err := cluster.Run(cfg, c, core.Application)
		if err != nil {
			return false
		}
		return bytes.Equal(marshalOutcome(t, out), want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 16}); err != nil {
		t.Error(err)
	}
}

// A canceled fleet stops early on every tier and reports core.ErrCanceled:
// the cancel is already closed, so the members' first cancel poll stops
// them long before the hour-long horizon.
func TestFleetCancelStopsEveryTier(t *testing.T) {
	canceled := make(chan struct{})
	close(canceled)
	for _, tc := range []struct {
		name string
		open bool
		cc   cluster.Config
	}{
		{"batched", true, cluster.Config{Instances: 4, Parallelism: 2}},
		{"windowed", true, cluster.Config{Instances: 4, Routing: cluster.RouteLeastLoaded, Parallelism: 2}},
		{"independent", false, cluster.Config{Instances: 4, Parallelism: 2}},
	} {
		cfg := benchCfg(t)
		if tc.open {
			cfg = openLoop(cfg, 400)
		}
		cfg.MaxSimMS = 3_600_000
		cfg.StableWindows = 1 << 20
		cfg.Cancel = canceled
		out, err := cluster.Run(cfg, tc.cc, core.Application)
		if !errors.Is(err, core.ErrCanceled) {
			t.Errorf("%s: err = %v, want core.ErrCanceled", tc.name, err)
		}
		if out.Stats.SimMS >= cfg.MaxSimMS {
			t.Errorf("%s: ran to %g ms, the whole horizon", tc.name, out.Stats.SimMS)
		}
	}
}
