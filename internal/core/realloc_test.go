package core

import (
	"testing"

	"rofs/internal/alloc/extent"
	"rofs/internal/fault"
)

func TestRunAllocationWithReallocation(t *testing.T) {
	res, err := RunAllocationWithReallocation(Config{
		Disk:     smallDisk(),
		Policy:   Buddy(),
		Workload: scaledTS(),
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Before.Filled {
		t.Fatal("disk never filled before reallocation")
	}
	if res.Compacted == 0 {
		t.Fatal("nothing compacted")
	}
	// Koch: the rearranger brings buddy internal fragmentation under ~4%.
	if res.After.InternalPct >= res.Before.InternalPct {
		t.Fatalf("reallocation did not help: %.1f%% -> %.1f%%",
			res.Before.InternalPct, res.After.InternalPct)
	}
	if res.After.InternalPct > 4 {
		t.Fatalf("post-reallocation internal %.1f%%, Koch reports <4%%", res.After.InternalPct)
	}
	// The reclaimed space reappears as free space.
	if res.After.ExternalPct <= res.Before.ExternalPct {
		t.Fatal("compaction should free space")
	}
	t.Logf("int %.1f->%.1f ext %.1f->%.1f compacted=%d failed=%d",
		res.Before.InternalPct, res.After.InternalPct,
		res.Before.ExternalPct, res.After.ExternalPct, res.Compacted, res.Failed)
}

func TestReallocationNoopForPoliciesWithoutCompactor(t *testing.T) {
	res, err := RunAllocationWithReallocation(Config{
		Disk:     smallDisk(),
		Policy:   Extent(extent.FirstFit, scaledRanges("TS", 3, 1)),
		Workload: scaledTS(),
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compacted != 0 || res.Failed != 0 {
		t.Fatal("extent files should not be compacted")
	}
	if res.After.InternalPct != res.Before.InternalPct {
		t.Fatal("no-op reallocation changed fragmentation")
	}
}

func TestFixedOrderedSpec(t *testing.T) {
	spec := FixedOrdered(4096)
	if spec.Name() != "fixed-4K-sorted" {
		t.Fatalf("Name = %q", spec.Name())
	}
	res, err := RunAllocation(Config{
		Disk:     smallDisk(),
		Policy:   spec,
		Workload: scaledTS(),
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Filled {
		t.Fatal("address-ordered fixed policy never filled")
	}
}

func TestHotSkewSelection(t *testing.T) {
	// A skewed TP variant runs and completes (exercises pickFile's Zipf
	// path); its throughput is positive.
	wl := scaledTP()
	wl.Types[0].HotSkew = 2.0
	res, err := RunApplication(Config{
		Disk:     smallDisk(),
		Policy:   RBuddy(5, 1, true),
		Workload: wl,
		Seed:     11,
		MaxSimMS: 30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Percent <= 0 {
		t.Fatal("skewed run produced no throughput")
	}
}

func TestDegradedConfigRejectedOnStriped(t *testing.T) {
	_, err := RunApplication(Config{
		Disk:     smallDisk(), // striped
		Policy:   RBuddy(5, 1, true),
		Workload: scaledTS(),
		Seed:     1,
		Faults:   fault.Scenario{PreFail: true},
	})
	if err == nil {
		t.Fatal("degraded mode accepted on a striped array")
	}
}
