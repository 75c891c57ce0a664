package fs

import (
	"math"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/alloc/fixed"
	"rofs/internal/alloc/rbuddy"
	"rofs/internal/disk"
	"rofs/internal/sim"
	"rofs/internal/units"
)

// newFS builds a file system over a fixed-block policy with no disk.
func newFS(t *testing.T, totalUnits, blockUnits int64) *FileSystem {
	t.Helper()
	p, err := fixed.New(fixed.Config{TotalUnits: totalUnits, BlockUnits: blockUnits})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(p, nil, units.KB)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// newDiskFS builds a file system over an rbuddy policy on the default
// 8-drive array.
func newDiskFS(t *testing.T) (*FileSystem, *sim.Engine, *disk.System) {
	t.Helper()
	eng := &sim.Engine{}
	dsys, err := disk.New(disk.DefaultConfig(), eng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rbuddy.New(rbuddy.Config{
		TotalUnits:  dsys.Units(),
		SizesUnits:  []int64{1, 8, 64, 1024, 16384},
		GrowFactor:  1,
		Clustered:   true,
		RegionUnits: 32 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(p, dsys, dsys.UnitBytes())
	if err != nil {
		t.Fatal(err)
	}
	return f, eng, dsys
}

func TestNewValidation(t *testing.T) {
	p, _ := fixed.New(fixed.Config{TotalUnits: 100, BlockUnits: 4})
	if _, err := New(nil, nil, 1024); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := New(p, nil, 0); err == nil {
		t.Error("zero unit accepted")
	}
	eng := &sim.Engine{}
	dsys, _ := disk.New(disk.DefaultConfig(), eng)
	if _, err := New(p, dsys, 512); err == nil {
		t.Error("mismatched unit size accepted")
	}
}

func TestAllocateAndAccounting(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(4 * units.KB)
	if err := f.Allocate(10 * units.KB); err != nil {
		t.Fatal(err)
	}
	if f.Length() != 10*units.KB {
		t.Fatalf("Length = %d", f.Length())
	}
	// 10K in 4K blocks: 12K allocated.
	if f.AllocatedBytes() != 12*units.KB {
		t.Fatalf("AllocatedBytes = %d", f.AllocatedBytes())
	}
	if fsys.UsedBytes() != 10*units.KB || fsys.AllocatedBytes() != 12*units.KB {
		t.Fatalf("fs accounting: used=%d allocated=%d", fsys.UsedBytes(), fsys.AllocatedBytes())
	}
	wantFrag := 100 * float64(2) / float64(12)
	if got := fsys.InternalFragPct(); math.Abs(got-wantFrag) > 1e-9 {
		t.Fatalf("InternalFragPct = %g, want %g", got, wantFrag)
	}
	wantUtil := 12.0 / 1000.0
	if got := fsys.Utilization(); math.Abs(got-wantUtil) > 1e-9 {
		t.Fatalf("Utilization = %g, want %g", got, wantUtil)
	}
}

func TestTruncateAndDelete(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(0)
	f.Allocate(20 * units.KB)
	f.Truncate(5 * units.KB) // length 15K -> 16K allocated
	if f.Length() != 15*units.KB || f.AllocatedBytes() != 16*units.KB {
		t.Fatalf("after truncate: len=%d alloc=%d", f.Length(), f.AllocatedBytes())
	}
	f.Truncate(100 * units.KB) // over-truncate clips to zero
	if f.Length() != 0 || f.AllocatedBytes() != 0 {
		t.Fatalf("over-truncate: len=%d alloc=%d", f.Length(), f.AllocatedBytes())
	}
	f.Allocate(4 * units.KB)
	f.Delete()
	if fsys.Files() != 0 || fsys.UsedBytes() != 0 || fsys.AllocatedBytes() != 0 {
		t.Fatal("delete did not release everything")
	}
}

func TestRecreateKeepsFileLive(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(8 * units.KB)
	f.Allocate(8 * units.KB)
	f.Recreate()
	if fsys.Files() != 1 {
		t.Fatal("recreate removed the file from the table")
	}
	if f.Length() != 0 || f.AllocatedBytes() != 0 {
		t.Fatal("recreate did not clear the allocation")
	}
	if err := f.Allocate(4 * units.KB); err != nil {
		t.Fatal(err)
	}
}

func TestRunsMapping(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(0)
	f.Allocate(16 * units.KB) // 4 blocks, contiguous on a fresh disk
	runs := f.runs(0, 16*units.KB)
	if len(runs) != 1 || runs[0] != (disk.Run{Start: 0, Len: 16}) {
		t.Fatalf("runs = %v", runs)
	}
	// Interior range: bytes 5K..11K => units 5..11.
	runs = f.runs(5*units.KB, 6*units.KB)
	if len(runs) != 1 || runs[0] != (disk.Run{Start: 5, Len: 6}) {
		t.Fatalf("interior runs = %v", runs)
	}
	// Unaligned range rounds out to unit boundaries.
	runs = f.runs(1536, 1024) // bytes [1536, 2560) => units 1..3
	if len(runs) != 1 || runs[0] != (disk.Run{Start: 1, Len: 2}) {
		t.Fatalf("unaligned runs = %v", runs)
	}
}

func TestRunsAcrossDiscontiguousExtents(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	a := fsys.Create(0)
	a.Allocate(4 * units.KB)
	b := fsys.Create(0)
	b.Allocate(4 * units.KB)
	a.Truncate(4 * units.KB)
	// c's two blocks: the LIFO free list hands back a's block (units 0-3)
	// then the next fresh block — discontiguous.
	c := fsys.Create(0)
	c.Allocate(8 * units.KB)
	runs := c.runs(0, 8*units.KB)
	if len(runs) != 2 {
		t.Fatalf("runs = %v, want 2 discontiguous", runs)
	}
	if runs[0].Len+runs[1].Len != 8 {
		t.Fatalf("runs don't cover 8 units: %v", runs)
	}
}

func TestReadWriteThroughDisk(t *testing.T) {
	fsys, eng, dsys := newDiskFS(t)
	f := fsys.Create(0)
	if err := f.Allocate(units.MB); err != nil {
		t.Fatal(err)
	}
	var readDone, writeDone float64 = -1, -1
	f.Read(0, units.MB, func(now float64) { readDone = now })
	eng.Run(math.Inf(1))
	f.Write(0, 256*units.KB, func(now float64) { writeDone = now })
	eng.Run(math.Inf(1))
	if readDone <= 0 || writeDone <= readDone {
		t.Fatalf("completions: read=%g write=%g", readDone, writeDone)
	}
	if dsys.TotalBytes() != units.MB+256*units.KB {
		t.Fatalf("disk bytes = %d", dsys.TotalBytes())
	}
}

func TestReadClipsToLength(t *testing.T) {
	fsys, eng, dsys := newDiskFS(t)
	f := fsys.Create(0)
	f.Allocate(10 * units.KB)
	f.Read(8*units.KB, 100*units.KB, func(float64) {})
	eng.Run(math.Inf(1))
	if dsys.TotalBytes() != 2*units.KB {
		t.Fatalf("clipped read moved %d bytes, want 2K", dsys.TotalBytes())
	}
}

func TestExtendWritesNewBytes(t *testing.T) {
	fsys, eng, dsys := newDiskFS(t)
	f := fsys.Create(0)
	f.Allocate(64 * units.KB)
	if err := f.Extend(8*units.KB, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run(math.Inf(1))
	if f.Length() != 72*units.KB {
		t.Fatalf("Length = %d", f.Length())
	}
	if dsys.TotalBytes() != 8*units.KB {
		t.Fatalf("extend wrote %d bytes, want 8K", dsys.TotalBytes())
	}
}

func TestExtendNoSpace(t *testing.T) {
	fsys := newFS(t, 100, 4)
	f := fsys.Create(0)
	if err := f.Allocate(100 * units.KB); err != nil {
		t.Fatal(err)
	}
	g := fsys.Create(0)
	if err := g.Extend(units.KB, nil); err != alloc.ErrNoSpace {
		t.Fatalf("Extend on full system = %v", err)
	}
	if g.Length() != 0 {
		t.Fatal("failed extend changed length")
	}
}

// readChunked reads [0, n) of f as a pipeline of chunk-sized requests,
// each issued when the previous one completes — how the core streams a
// whole-file transfer. done fires when the last chunk completes.
func readChunked(f *File, n, chunk int64, done func(now float64)) {
	var from func(off int64)
	from = func(off int64) {
		size := min(chunk, n-off)
		f.Read(off, size, func(now float64) {
			if off+size < n {
				from(off + size)
			} else {
				done(now)
			}
		})
	}
	from(0)
}

func TestChunkedReadMatchesWholeRead(t *testing.T) {
	// A chunked whole-file read must move the same bytes and take roughly
	// the same simulated time as one monolithic request.
	run := func(chunk int64) (float64, int64) {
		fsys, eng, dsys := newDiskFS(t)
		f := fsys.Create(0)
		f.Allocate(16 * units.MB)
		var done float64
		if chunk == 0 {
			f.Read(0, 16*units.MB, func(now float64) { done = now })
		} else {
			readChunked(f, 16*units.MB, chunk, func(now float64) { done = now })
		}
		eng.Run(math.Inf(1))
		return done, dsys.TotalBytes()
	}
	tWhole, bWhole := run(0)
	tChunked, bChunked := run(2 * units.MB)
	if bWhole != 16*units.MB || bChunked != 16*units.MB {
		t.Fatalf("bytes: whole=%d chunked=%d", bWhole, bChunked)
	}
	if tChunked < tWhole || tChunked > tWhole*1.1 {
		t.Fatalf("chunked read took %.1f ms vs whole %.1f ms", tChunked, tWhole)
	}
}

// TestChunkedZeroLength: a read with nothing to transfer completes at
// once even with a disk attached, so a chunk pipeline over an empty file
// ends instead of waiting for a completion that never comes.
func TestChunkedZeroLength(t *testing.T) {
	fsys, _, dsys := newDiskFS(t)
	f := fsys.Create(0)
	called := false
	f.Read(0, units.MB, func(float64) { called = true })
	if !called {
		t.Fatal("zero-length read never completed")
	}
	if dsys.TotalBytes() != 0 {
		t.Fatalf("zero-length read moved %d bytes", dsys.TotalBytes())
	}
}

func TestCursor(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(0)
	f.Allocate(20 * units.KB)
	f.SetCursor(16 * units.KB)
	f.Truncate(10 * units.KB) // cursor (16K) now beyond length (10K): resets
	if f.Cursor() != 0 {
		t.Fatalf("cursor = %d after truncate", f.Cursor())
	}
}
