package core_test

import (
	"fmt"
	"math"

	"rofs/internal/alloc/rbuddy"
	"rofs/internal/core"
	"rofs/internal/disk"
	"rofs/internal/fs"
	"rofs/internal/sim"
	"rofs/internal/units"
	"rofs/internal/workload"
)

// tinyDisk keeps the examples fast: two short drives (≈86M).
func tinyDisk() disk.Config {
	cfg := disk.DefaultConfig()
	cfg.NDisks = 2
	cfg.Geometry.Cylinders = 200
	return cfg
}

// ExampleRunAllocation measures fragmentation at the first failed request
// — the paper's §3 allocation test — for the restricted buddy policy on a
// reduced time-sharing workload.
func ExampleRunAllocation() {
	res, err := core.RunAllocation(core.Config{
		Disk:     tinyDisk(),
		Policy:   core.RBuddy(5, 1, true),
		Workload: workload.TimeSharing().Scale(32, 1),
		Seed:     42,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("filled=%v internal=%.1f%% external=%.1f%%\n",
		res.Filled, res.InternalPct, res.ExternalPct)
	// Output:
	// filled=true internal=6.4% external=0.1%
}

// ExampleRunSequential runs the §3 sequential test: after the application
// phase ages the disk, every operation reads or writes an entire file.
func ExampleRunSequential() {
	res, err := core.RunSequential(core.Config{
		Disk:     tinyDisk(),
		Policy:   core.RBuddy(5, 1, true),
		Workload: workload.SuperComputer().Scale(1, 32),
		Seed:     42,
		MaxSimMS: 60_000,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Large files on big multiblock allocations stream near the array's
	// full bandwidth.
	fmt.Printf("high=%v\n", res.Percent > 80)
	// Output:
	// high=true
}

// ExamplePolicySpec_Name shows the policy naming scheme used throughout
// the reports.
func ExamplePolicySpec_Name() {
	fmt.Println(core.Buddy().Name())
	fmt.Println(core.RBuddy(5, 1, true).Name())
	fmt.Println(core.Fixed(4096).Name())
	// Output:
	// buddy
	// rbuddy-5-g1-clus
	// fixed-4K
}

// Example_handBuilt builds the stack that core.Run assembles, by hand: an
// event engine, the paper's Table 1 array (eight CDC Wren IV drives
// striped in 24K units), the restricted buddy policy the paper selects
// (block sizes 1K to 16M, grow factor 1, clustered in 32M regions, §4.2),
// and a file system binding the two. It grows a file to 100M and reads it
// back in 2M chunks. Restricted buddy keeps the file in a few extents, so
// the read runs near the array's sustained bandwidth.
func Example_handBuilt() {
	eng := &sim.Engine{}
	dsys, err := disk.New(disk.DefaultConfig(), eng)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	policy, err := rbuddy.New(rbuddy.Config{
		TotalUnits:  dsys.Units(),
		SizesUnits:  []int64{1, 8, 64, 1024, 16384},
		GrowFactor:  1,
		Clustered:   true,
		RegionUnits: 32 * 1024,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fsys, err := fs.New(policy, dsys, dsys.UnitBytes())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	f := fsys.Create(16 * units.MB)
	if err := f.Allocate(100 * units.MB); err != nil {
		fmt.Println("error:", err)
		return
	}
	// Each 2M read is issued when the previous one completes.
	var doneAt float64
	var readFrom func(off int64)
	readFrom = func(off int64) {
		n := min(2*units.MB, f.Length()-off)
		f.Read(off, n, func(now float64) {
			if off+n < f.Length() {
				readFrom(off + n)
			} else {
				doneAt = now
			}
		})
	}
	readFrom(0)
	eng.Run(math.Inf(1))

	rate := float64(f.Length()) / doneAt // bytes per ms
	fmt.Printf("array: %d drives, %s, sustained %.1f M/s\n",
		dsys.Config().NDisks, units.Format(dsys.CapacityBytes()), dsys.MaxBandwidth()*1000/1e6)
	fmt.Printf("file: %s in %d extents\n", units.Format(f.Length()), len(f.Alloc().Extents()))
	fmt.Printf("read: %.2f s, %.0f%% of sustained bandwidth\n", doneAt/1000, 100*rate/dsys.MaxBandwidth())
	// Output:
	// array: 8 drives, 2.6G, sustained 10.6 M/s
	// file: 100M in 4 extents
	// read: 10.29 s, 96% of sustained bandwidth
}
