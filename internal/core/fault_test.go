package core

import (
	"reflect"
	"testing"

	"rofs/internal/disk"
	"rofs/internal/fault"
	"rofs/internal/units"
)

// raid5SmallDisk returns the smallest non-degenerate RAID-5 array (four
// reduced drives) for fault tests.
func raid5SmallDisk() disk.Config {
	cfg := smallDisk()
	cfg.NDisks = 4
	cfg.Layout = disk.RAID5
	return cfg
}

func faultTestConfig() Config {
	return Config{
		Disk:     raid5SmallDisk(),
		Policy:   RBuddy(3, 1, true),
		Workload: scaledTS(),
		Seed:     3,
		MaxSimMS: 120_000,
		Faults: fault.Scenario{
			FailAtMS:          10_000,
			FailDrive:         1,
			TransientProb:     0.001,
			Rebuild:           true,
			RebuildChunkBytes: 4 * units.MB,
		},
	}
}

// TestPreFailRejectsScheduledFailure: a pre-failed drive plus a scheduled
// failure of another drive would be a double failure — RAID-5 cannot
// survive it, so validation must reject the combination.
func TestPreFailRejectsScheduledFailure(t *testing.T) {
	s := fault.Scenario{PreFail: true, FailAtMS: 10_000, FailDrive: 1}
	if err := s.Validate(); err == nil {
		t.Fatal("PreFail + scheduled drive failure validated, want error")
	}
}

// TestFaultInjectorWiring runs a full fault scenario through the session:
// the result must carry a fault report with the failure, retries, and a
// completed rebuild.
func TestFaultInjectorWiring(t *testing.T) {
	out, err := Run(faultTestConfig(), Application)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Perf
	fr := res.Faults
	if fr == nil {
		t.Fatal("fault scenario ran but the result has no fault report")
	}
	if fr.DriveFailures != 1 {
		t.Errorf("drive failures = %d, want 1", fr.DriveFailures)
	}
	if fr.FirstFailureMS != 10_000 {
		t.Errorf("first failure at %g ms, want the scheduled 10000", fr.FirstFailureMS)
	}
	if fr.TransientErrors == 0 || fr.Retries == 0 {
		t.Errorf("no transient errors (%d) or retries (%d) at probability 0.001",
			fr.TransientErrors, fr.Retries)
	}
	if fr.DegradedMS <= 0 {
		t.Errorf("degraded time %g, want > 0", fr.DegradedMS)
	}
	if fr.Rebuilds != 1 {
		t.Errorf("rebuilds = %d, want 1 (degraded at end: %t)", fr.Rebuilds, fr.DegradedAtEnd)
	}
	if len(fr.Events) < 3 {
		t.Errorf("event log %v, want at least failed/rebuild-started/rebuild-done", fr.Events)
	}
	if res.Percent <= 0 {
		t.Errorf("throughput %.2f%%, want > 0 despite faults", res.Percent)
	}
}

// TestFaultFreeRunHasNoReport pins the disabled path: a zero scenario
// must leave the result's fault report nil.
func TestFaultFreeRunHasNoReport(t *testing.T) {
	cfg := faultTestConfig()
	cfg.Faults = fault.Scenario{}
	out, err := Run(cfg, Application)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Perf
	if res.Faults != nil {
		t.Errorf("fault-free run produced a fault report: %+v", res.Faults)
	}
}

// TestFaultRunDeterminism replays the full scenario: every field of the
// result — including the fault report and its event log — must match.
func TestFaultRunDeterminism(t *testing.T) {
	a, err := Run(faultTestConfig(), Application)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(faultTestConfig(), Application)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Perf, b.Perf) {
		t.Fatalf("same seed + scenario diverged:\n%+v\n%+v", a.Perf, b.Perf)
	}
}

// TestFaultsSkippedInAllocationTest: the allocation test has no timing
// engine, so the injector must not arm (and the run must succeed).
func TestFaultsSkippedInAllocationTest(t *testing.T) {
	cfg := faultTestConfig()
	if _, err := Run(cfg, Allocation); err != nil {
		t.Fatal(err)
	}
}

// TestFaultConfigRejected pins Config-level validation of bad scenarios.
func TestFaultConfigRejected(t *testing.T) {
	cfg := faultTestConfig()
	cfg.Faults.TransientProb = 2
	if _, err := Run(cfg, Application); err == nil {
		t.Error("TransientProb 2 accepted")
	}
	cfg = faultTestConfig()
	cfg.Disk.Layout = disk.Striped
	if _, err := Run(cfg, Application); err == nil {
		t.Error("drive-failure scenario accepted on a striped array")
	}
}
