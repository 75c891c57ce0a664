package fs

import (
	"math"
	"testing"

	"rofs/internal/units"
)

func TestExtendWithNilDone(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(0)
	if err := f.Extend(units.KB, nil); err != nil {
		t.Fatal(err)
	}
	if f.Length() != units.KB {
		t.Fatalf("Length = %d", f.Length())
	}
	if err := f.Extend(0, nil); err != nil {
		t.Fatal("zero extend errored")
	}
	// Without a disk, a data operation completes before it returns.
	calls := 0
	if err := f.Extend(units.KB, func(float64) { calls++ }); err != nil {
		t.Fatal(err)
	}
	f.Read(0, 2*units.KB, func(float64) { calls++ })
	if calls != 2 {
		t.Fatalf("%d of 2 diskless operations completed before returning", calls)
	}
}

func TestWriteZeroAndNegative(t *testing.T) {
	fsys, eng, dsys := newDiskFS(t)
	f := fsys.Create(0)
	f.Allocate(10 * units.KB)
	calls := 0
	f.Write(5*units.KB, 0, func(float64) { calls++ })
	f.Write(-100, 2*units.KB, func(float64) { calls++ }) // off clips to 0
	f.Read(20*units.KB, units.KB, func(float64) { calls++ })
	eng.Run(math.Inf(1))
	if calls != 3 {
		t.Fatalf("completions = %d, want 3", calls)
	}
	if dsys.TotalBytes() != 2*units.KB {
		t.Fatalf("moved %d bytes, want only the clipped write", dsys.TotalBytes())
	}
}

func TestTruncateZeroAndNegative(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(0)
	f.Allocate(8 * units.KB)
	f.Truncate(0)
	f.Truncate(-5)
	if f.Length() != 8*units.KB {
		t.Fatal("no-op truncate changed length")
	}
}

func TestUtilizationAndFragOnEmpty(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	if fsys.InternalFragPct() != 0 {
		t.Fatal("empty fs internal frag nonzero")
	}
	if fsys.ExternalFragPct() != 100 {
		t.Fatal("empty fs external frag should be 100% free")
	}
	if fsys.Utilization() != 0 {
		t.Fatal("empty fs utilization nonzero")
	}
}

func TestRunsPanicsOutsideLength(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(0)
	f.Allocate(4 * units.KB)
	defer func() {
		if recover() == nil {
			t.Fatal("runs outside file length did not panic")
		}
	}()
	f.runs(2*units.KB, 4*units.KB)
}
