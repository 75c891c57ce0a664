package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"rofs/internal/alloc/extent"
	"rofs/internal/disk"
	"rofs/internal/metrics"
	"rofs/internal/sim"
	"rofs/internal/units"
	"rofs/internal/workload"
)

// smallDisk returns a reduced array (2 drives ≈ 86M) so tests run fast;
// the workloads are scaled to match in the helpers below.
func smallDisk() disk.Config {
	cfg := disk.DefaultConfig()
	cfg.NDisks = 2
	cfg.Geometry.Cylinders = 200
	return cfg
}

func scaledTS() workload.Workload { return workload.TimeSharing().Scale(32, 1) }
func scaledTP() workload.Workload { return workload.TransactionProcessing().Scale(1, 32) }
func scaledSC() workload.Workload { return workload.SuperComputer().Scale(1, 32) }

// scaledRanges divides the paper's extent ranges to match scaled file
// sizes.
func scaledRanges(wl string, n int, div int64) []int64 {
	r, err := workload.ExtentRanges(wl, n)
	if err != nil {
		panic(err)
	}
	out := make([]int64, len(r))
	for i := range r {
		out[i] = r[i] / div
		if out[i] < units.KB {
			out[i] = units.KB
		}
	}
	return out
}

func TestPolicySpecNames(t *testing.T) {
	cases := []struct {
		spec PolicySpec
		want string
	}{
		{Buddy(), "buddy"},
		{RBuddy(5, 1, true), "rbuddy-5-g1-clus"},
		{RBuddy(2, 2, false), "rbuddy-2-g2-uncl"},
		{Extent(extent.FirstFit, []int64{units.KB}), "extent-first-fit-1r"},
		{Extent(extent.BestFit, []int64{units.KB, units.MB}), "extent-best-fit-2r"},
		{Fixed(4 * units.KB), "fixed-4K"},
	}
	for _, c := range cases {
		if got := c.spec.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestPolicySpecBuild(t *testing.T) {
	rng := sim.NewRNG(42)
	for _, spec := range []PolicySpec{
		Buddy(),
		RBuddy(5, 1, true),
		RBuddy(3, 2, false),
		Extent(extent.FirstFit, []int64{64 * units.KB}),
		Fixed(16 * units.KB),
	} {
		p, err := spec.Build(1<<20, units.KB, rng)
		if err != nil {
			t.Errorf("%s: %v", spec.Name(), err)
			continue
		}
		if p.TotalUnits() == 0 || p.FreeUnits() != p.TotalUnits() && spec.Kind != "fixed" {
			t.Errorf("%s: bad initial state", spec.Name())
		}
	}
	if _, err := (PolicySpec{Kind: "nope"}).Build(100, units.KB, rng); err == nil {
		t.Error("unknown kind accepted")
	}
	// Non-unit-multiple sizes are rejected.
	if _, err := (PolicySpec{Kind: "fixed", BlockBytes: 1500}).Build(100, units.KB, rng); err == nil {
		t.Error("non-multiple block size accepted")
	}
}

func TestRBuddyPanicsOnBadSizeCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RBuddy(1, ...) did not panic")
		}
	}()
	RBuddy(1, 1, true)
}

func TestAllocationTestAllPolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec PolicySpec
	}{
		{"buddy", Buddy()},
		{"rbuddy", RBuddy(3, 1, true)},
		{"rbuddy-uncl", RBuddy(3, 2, false)},
		{"extent", Extent(extent.FirstFit, scaledRanges("TS", 3, 1))},
		{"fixed", Fixed(4 * units.KB)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := Run(Config{
				Disk:     smallDisk(),
				Policy:   tc.spec,
				Workload: scaledTS(),
				Seed:     1,
			}, Allocation)
			if err != nil {
				t.Fatal(err)
			}
			res := out.Frag
			if !res.Filled {
				t.Fatalf("disk never filled: %+v", res)
			}
			if res.InternalPct < 0 || res.InternalPct > 100 ||
				res.ExternalPct < 0 || res.ExternalPct > 100 {
				t.Fatalf("fragmentation out of range: %+v", res)
			}
			t.Logf("%s: internal=%.1f%% external=%.1f%% ops=%d",
				tc.name, res.InternalPct, res.ExternalPct, res.Ops)
		})
	}
}

func TestBuddyFragmentationWorstAsInPaper(t *testing.T) {
	// Table 3 vs Figures 1/4: buddy's internal fragmentation towers over
	// the restricted buddy and extent policies.
	frag := func(spec PolicySpec) float64 {
		out, err := Run(Config{
			Disk: smallDisk(), Policy: spec, Workload: scaledTS(), Seed: 7,
		}, Allocation)
		if err != nil {
			t.Fatal(err)
		}
		res := out.Frag
		if !res.Filled {
			t.Fatalf("%s: did not fill", spec.Name())
		}
		return res.InternalPct
	}
	b := frag(Buddy())
	r := frag(RBuddy(5, 1, true))
	e := frag(Extent(extent.FirstFit, scaledRanges("TS", 3, 1)))
	t.Logf("internal frag: buddy=%.1f%% rbuddy=%.1f%% extent=%.1f%%", b, r, e)
	if b <= r || b <= e {
		t.Errorf("buddy internal frag %.1f%% should exceed rbuddy %.1f%% and extent %.1f%%", b, r, e)
	}
	if r > 12 {
		t.Errorf("rbuddy internal frag %.1f%%; paper keeps it in single digits", r)
	}
	if e > 10 {
		t.Errorf("extent internal frag %.1f%%; paper keeps it under ~5%%", e)
	}
}

func TestApplicationTestRuns(t *testing.T) {
	out, err := Run(Config{
		Disk:     smallDisk(),
		Policy:   RBuddy(3, 1, true),
		Workload: scaledTS(),
		Seed:     3,
		MaxSimMS: 120_000,
	}, Application)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Perf
	if res.Percent <= 0 || res.Percent > 110 {
		t.Fatalf("application throughput %.1f%% out of range (%+v)", res.Percent, res)
	}
	if res.Ops == 0 || res.Bytes == 0 {
		t.Fatalf("no work performed: %+v", res)
	}
	t.Logf("TS app: %.1f%% stable=%v windows=%d ops=%d", res.Percent, res.Stable, res.Windows, res.Ops)
}

func TestSequentialBeatsApplicationOnLargeFiles(t *testing.T) {
	// For the supercomputer workload, whole-file sequential transfers must
	// beat the application mix (paper: 94.4% vs 88.0% for buddy, and the
	// same ordering for every policy).
	cfg := Config{
		Disk:     smallDisk(),
		Policy:   RBuddy(5, 1, true),
		Workload: scaledSC(),
		Seed:     5,
		MaxSimMS: 180_000,
	}
	seq, err := Run(cfg, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	app, err := Run(cfg, Application)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SC: sequential=%.1f%% application=%.1f%%", seq.Perf.Percent, app.Perf.Percent)
	if seq.Perf.Percent < 50 {
		t.Errorf("SC sequential %.1f%%; expected high utilization", seq.Perf.Percent)
	}
	if seq.Perf.Percent < app.Perf.Percent {
		t.Errorf("sequential (%.1f%%) below application (%.1f%%)", seq.Perf.Percent, app.Perf.Percent)
	}
}

func TestTSSequentialIsSeekBound(t *testing.T) {
	// Paper Figure 6a: the time-sharing workload is seek-bound — it cannot
	// approach the bandwidth the large-file SC workload reaches. (The
	// scaled test disk has short seeks, so the assertion is relative; the
	// full-scale run in EXPERIMENTS.md lands near the paper's ~20%.)
	ts, err := Run(Config{
		Disk:     smallDisk(),
		Policy:   RBuddy(5, 1, true),
		Workload: scaledTS(),
		Seed:     5,
		MaxSimMS: 120_000,
	}, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Run(Config{
		Disk:     smallDisk(),
		Policy:   RBuddy(5, 1, true),
		Workload: scaledSC(),
		Seed:     5,
		MaxSimMS: 120_000,
	}, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sequential: TS=%.1f%% SC=%.1f%%", ts.Perf.Percent, sc.Perf.Percent)
	if ts.Perf.Percent > 0.75*sc.Perf.Percent {
		t.Errorf("TS sequential %.1f%% not clearly below SC %.1f%%", ts.Perf.Percent, sc.Perf.Percent)
	}
}

func TestUtilizationStaysInBand(t *testing.T) {
	// §2.2/§3: measurement holds utilization between the bounds; extends
	// above the ceiling become truncates. Allow one 16M extent of
	// overshoot past the ceiling (an allocation granule).
	for _, tc := range []struct {
		name string
		spec PolicySpec
		wl   workload.Workload
	}{
		{"rbuddy-TS", RBuddy(5, 1, true), scaledTS()},
		{"extent-TP", Extent(extent.FirstFit, scaledRanges("TP", 3, 32)), scaledTP()},
		{"buddy-SC", Buddy(), scaledSC()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := Run(Config{
				Disk:     smallDisk(),
				Policy:   tc.spec,
				Workload: tc.wl,
				Seed:     6,
				MaxSimMS: 60_000,
			}, Application)
			if err != nil {
				t.Fatal(err)
			}
			res := out.Perf
			if res.FinalUtilization < 0.85 || res.FinalUtilization > 0.99 {
				t.Errorf("final utilization %.3f outside the measurement band",
					res.FinalUtilization)
			}
		})
	}
}

func TestExtentsPerFileReported(t *testing.T) {
	out, err := Run(Config{
		Disk:     smallDisk(),
		Policy:   Extent(extent.FirstFit, scaledRanges("TP", 1, 32)),
		Workload: scaledTP(),
		Seed:     2,
	}, Allocation)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Frag
	if res.ExtentsPerFile <= 1 {
		t.Fatalf("ExtentsPerFile = %.1f; TP relations need many extents", res.ExtentsPerFile)
	}
	t.Logf("TP 1-range extents/file: %.1f", res.ExtentsPerFile)
}

func TestConfigValidation(t *testing.T) {
	bad := Config{
		Disk:      smallDisk(),
		Policy:    Buddy(),
		Workload:  scaledTS(),
		LowerUtil: 0.99,
		UpperUtil: 0.5,
	}
	if _, err := Run(bad, Allocation); err == nil {
		t.Error("inverted utilization bounds accepted")
	}
	for _, cap := range []float64{-5000, math.NaN(), math.Inf(-1)} {
		cfg := Config{Disk: smallDisk(), Policy: Buddy(), Workload: scaledTS(), MaxSimMS: cap}
		for _, kind := range []TestKind{Application, Sequential, Aging} {
			if out, err := Run(cfg, kind); err == nil {
				t.Errorf("MaxSimMS %g accepted by %v: SimMS %g", cap, kind, out.Stats.SimMS)
			}
		}
	}
	noTypes := Config{Disk: smallDisk(), Policy: Buddy(), Workload: workload.Workload{Name: "empty"}}
	if _, err := Run(noTypes, Allocation); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Disk: smallDisk(), Policy: RBuddy(3, 1, true), Workload: scaledTS(), Seed: 9}
	a, err := Run(cfg, Allocation)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, Allocation)
	if err != nil {
		t.Fatal(err)
	}
	if a.Frag != b.Frag {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Frag, b.Frag)
	}
}

// TestRunEveryKind pins Run's kind contract: the outcome carries the kind
// asked for, that kind's payload is filled and no other is, and the
// metrics bundle's test label names the test the instance ran (a realloc
// run's instance runs the allocation test).
func TestRunEveryKind(t *testing.T) {
	for _, tc := range []struct {
		kind    TestKind
		payload string
		label   string
	}{
		{Allocation, "Frag", "alloc"},
		{Application, "Perf", "app"},
		{Sequential, "Perf", "seq"},
		{AllocationRealloc, "Realloc", "alloc"},
		{Aging, "Aging", "aging"},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			cfg := metricsConfig(1)
			cfg.Policy = Buddy()
			cfg.Metrics = metrics.New(1000)
			out, err := Run(cfg, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			if out.Kind != tc.kind {
				t.Fatalf("Outcome.Kind = %v, want %v", out.Kind, tc.kind)
			}
			ops := map[string]int64{
				"Frag":    out.Frag.Ops,
				"Perf":    out.Perf.Ops,
				"Realloc": out.Realloc.Before.Ops,
				"Aging":   out.Aging.Ops,
			}
			v := reflect.ValueOf(out)
			for name, n := range ops {
				zero := v.FieldByName(name).IsZero()
				if name == tc.payload && (zero || n == 0) {
					t.Errorf("%s payload not filled: %+v", name, v.FieldByName(name).Interface())
				}
				if name != tc.payload && !zero {
					t.Errorf("%s payload filled on a %v run", name, tc.kind)
				}
			}
			labels := map[string]string{}
			for _, l := range out.Metrics.Labels() {
				labels[l.Key] = l.Value
			}
			if labels["test"] != tc.label {
				t.Errorf("test label = %q, want %q", labels["test"], tc.label)
			}
		})
	}
	if _, err := Run(metricsConfig(1), TestKind(99)); err == nil || !strings.Contains(err.Error(), "99") {
		t.Fatalf("Run with kind 99: err = %v, want an error naming kind 99", err)
	}
}
