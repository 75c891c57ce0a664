package buddy

import (
	"fmt"
	"math/rand"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/units"
)

func newPolicy(t *testing.T, total int64) *Policy {
	t.Helper()
	p, err := New(Config{TotalUnits: total})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{TotalUnits: 0}); err == nil {
		t.Error("zero total accepted")
	}
	if _, err := New(Config{TotalUnits: 100, MinExtentUnits: 3}); err == nil {
		t.Error("non-power-of-two min extent accepted")
	}
	if _, err := New(Config{TotalUnits: 100, MinExtentUnits: 8, MaxExtentUnits: 4}); err == nil {
		t.Error("min > max accepted")
	}
}

func TestInitialFreeEqualsTotal(t *testing.T) {
	for _, total := range []int64{64, 100, 1000, 2764800} {
		p := newPolicy(t, total)
		if p.FreeUnits() != total {
			t.Errorf("total %d: FreeUnits = %d", total, p.FreeUnits())
		}
		if p.TotalUnits() != total {
			t.Errorf("total %d: TotalUnits = %d", total, p.TotalUnits())
		}
	}
}

func TestDoublingGrowth(t *testing.T) {
	p := newPolicy(t, 1<<20)
	f := p.NewFile(0)
	// Grow by 1 unit repeatedly: extents should be 1,1,2,4,8,... and the
	// total allocation a power of two at each step.
	var sizes []int64
	for i := 0; i < 8; i++ {
		added, err := f.Grow(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(added) != 1 {
			t.Fatalf("step %d: %d extents added", i, len(added))
		}
		sizes = append(sizes, added[0].Len)
	}
	want := []int64{1, 1, 2, 4, 8, 16, 32, 64}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("extent sizes %v, want %v", sizes, want)
		}
	}
	if f.AllocatedUnits() != 128 {
		t.Fatalf("allocated %d, want 128", f.AllocatedUnits())
	}
}

func TestGrowCoversLargeRequest(t *testing.T) {
	p := newPolicy(t, 1<<20)
	f := p.NewFile(0)
	added, err := f.Grow(1000)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Sum(added) < 1000 {
		t.Fatalf("Grow(1000) added only %d units", alloc.Sum(added))
	}
	if f.AllocatedUnits() != alloc.Sum(added) {
		t.Fatal("allocated mismatch")
	}
	if err := alloc.Validate(f.Extents(), p.TotalUnits()); err != nil {
		t.Fatal(err)
	}
}

func TestMaxExtentCap(t *testing.T) {
	p, err := New(Config{TotalUnits: 1 << 16, MaxExtentUnits: 256})
	if err != nil {
		t.Fatal(err)
	}
	f := p.NewFile(0)
	added, err := f.Grow(2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range added {
		if e.Len > 256 {
			t.Fatalf("extent %v exceeds cap", e)
		}
	}
}

func TestGrowFailureIsAtomic(t *testing.T) {
	p := newPolicy(t, 64)
	f := p.NewFile(0)
	if _, err := f.Grow(40); err != nil { // allocates 1,1,2,4,8,16,32 = 64 units
		t.Fatal(err)
	}
	if p.FreeUnits() != 0 {
		t.Fatalf("free = %d after filling", p.FreeUnits())
	}
	g := p.NewFile(0)
	if _, err := g.Grow(1); err != alloc.ErrNoSpace {
		t.Fatalf("Grow on full disk = %v", err)
	}
	if g.AllocatedUnits() != 0 || len(g.Extents()) != 0 {
		t.Fatal("failed Grow left allocation behind")
	}
}

func TestStrictFailureWithFreeSpace(t *testing.T) {
	// The defining buddy behaviour (Table 3's external fragmentation): a
	// request for a large extent fails even though plenty of smaller free
	// space exists.
	p := newPolicy(t, 1024)
	// Allocate 512 one-unit files pinning alternate buddies.
	var files []alloc.File
	for i := 0; i < 1024; i++ {
		f := p.NewFile(0)
		if _, err := f.Grow(1); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	for i := 0; i < 1024; i += 2 {
		files[i].TruncateTo(0)
	}
	if p.FreeUnits() != 512 {
		t.Fatalf("free = %d", p.FreeUnits())
	}
	big := p.NewFile(0)
	// A file grown past 1 unit wants a 2-unit extent; none can exist.
	if _, err := big.Grow(3); err != alloc.ErrNoSpace {
		t.Fatalf("expected ErrNoSpace with 50%% free, got %v", err)
	}
}

func TestTruncateFreesWholeBlocksOnly(t *testing.T) {
	p := newPolicy(t, 1<<16)
	f := p.NewFile(0)
	if _, err := f.Grow(16); err != nil { // 1+1+2+4+8 = 16
		t.Fatal(err)
	}
	free0 := p.FreeUnits()
	f.TruncateTo(9) // the trailing 8-block is partially used: must stay
	if f.AllocatedUnits() != 16 {
		t.Fatalf("allocated = %d, want 16 (partial block kept)", f.AllocatedUnits())
	}
	f.TruncateTo(8) // now the 8-block is wholly beyond: freed
	if f.AllocatedUnits() != 8 {
		t.Fatalf("allocated = %d, want 8", f.AllocatedUnits())
	}
	if p.FreeUnits() != free0+8 {
		t.Fatalf("free = %d, want %d", p.FreeUnits(), free0+8)
	}
}

func TestReleaseCoalescesFully(t *testing.T) {
	p := newPolicy(t, 4096)
	var files []alloc.File
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		f := p.NewFile(0)
		if _, err := f.Grow(int64(rng.Intn(100) + 1)); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	for _, f := range files {
		f.TruncateTo(0)
	}
	if p.FreeUnits() != 4096 {
		t.Fatalf("free = %d after releasing everything", p.FreeUnits())
	}
	// Coalescing must have restored the single maximal block: a file can
	// again get the biggest allowed extent in one piece.
	f := p.NewFile(0)
	if _, err := f.Grow(4096); err != nil {
		t.Fatalf("full-space allocation after coalescing failed: %v", err)
	}
}

func TestNonPowerOfTwoSpace(t *testing.T) {
	// 2764800 units = the paper's 2.7G at 1K units; not a power of two.
	p := newPolicy(t, 2764800)
	f := p.NewFile(0)
	if _, err := f.Grow(100000); err != nil {
		t.Fatal(err)
	}
	if err := alloc.Validate(f.Extents(), p.TotalUnits()); err != nil {
		t.Fatal(err)
	}
	for _, e := range f.Extents() {
		if e.End() > 2764800 {
			t.Fatalf("extent %v beyond usable space", e)
		}
	}
}

// TestRandomizedInvariants drives random grow/truncate traffic and checks
// conservation of space, alignment, and non-overlap throughout.
func TestRandomizedInvariants(t *testing.T) {
	const total = 1 << 15
	p := newPolicy(t, total)
	rng := rand.New(rand.NewSource(11))
	var files []alloc.File
	for step := 0; step < 3000; step++ {
		switch rng.Intn(3) {
		case 0, 1:
			var f alloc.File
			if len(files) > 0 && rng.Intn(2) == 0 {
				f = files[rng.Intn(len(files))]
			} else {
				f = p.NewFile(0)
				files = append(files, f)
			}
			_, err := f.Grow(int64(rng.Intn(64) + 1))
			if err != nil && err != alloc.ErrNoSpace {
				t.Fatal(err)
			}
		case 2:
			if len(files) > 0 {
				f := files[rng.Intn(len(files))]
				f.TruncateTo(rng.Int63n(f.AllocatedUnits() + 1))
			}
		}
		if step%200 == 0 {
			var used int64
			var all []alloc.Extent
			for _, f := range files {
				used += f.AllocatedUnits()
				all = append(all, f.Extents()...)
			}
			if used+p.FreeUnits() != total {
				t.Fatalf("step %d: used %d + free %d != total %d",
					step, used, p.FreeUnits(), total)
			}
			if err := alloc.Validate(all, total); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
}

func TestBlockAlignment(t *testing.T) {
	p := newPolicy(t, 1<<16)
	f := p.NewFile(0).(*file)
	if _, err := f.Grow(500); err != nil {
		t.Fatal(err)
	}
	for _, b := range f.blocks {
		size := int64(1) << b.order
		if !units.IsAligned(b.addr, size) {
			t.Fatalf("block at %d size %d misaligned", b.addr, size)
		}
	}
}

// TestDoubleFreePanics frees an allocated block twice. Its buddy stays
// allocated, so the first free cannot coalesce and the second finds the
// block still free at its order.
func TestDoubleFreePanics(t *testing.T) {
	for _, c := range []struct {
		name  string
		order int
		upper bool // free the upper buddy of the pair instead of the lower
		want  string
	}{
		{"unit block", 0, false, "buddy: free of already-free block at 0 (order 0)"},
		{"order-3 block", 3, false, "buddy: free of already-free block at 0 (order 3)"},
		{"upper buddy", 5, true, "buddy: free of already-free block at 32 (order 5)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newPolicy(t, 1<<10)
			var pair [2]int64
			for i := range pair {
				addr, err := p.allocBlock(c.order)
				if err != nil {
					t.Fatal(err)
				}
				pair[i] = addr
			}
			victim := pair[0]
			if c.upper {
				victim = pair[1]
			}
			p.freeBlock(victim, c.order)
			defer func() {
				if r := recover(); fmt.Sprint(r) != c.want {
					t.Fatalf("second free panicked with %v, want %q", r, c.want)
				}
			}()
			p.freeBlock(victim, c.order)
		})
	}
}

// TestAllocFreeAllocatesNothing: taking a block (splitting on the way)
// and freeing it (coalescing back) touches only the per-order bitmaps.
func TestAllocFreeAllocatesNothing(t *testing.T) {
	p := newPolicy(t, 1<<20)
	held, err := p.allocBlock(4) // keeps the coalesce chain from reaching the top
	if err != nil {
		t.Fatal(err)
	}
	order := 0
	allocs := testing.AllocsPerRun(1000, func() {
		addr, err := p.allocBlock(order)
		if err != nil {
			t.Fatal(err)
		}
		p.freeBlock(addr, order)
		order = (order + 3) % 12
	})
	if allocs != 0 {
		t.Fatalf("allocBlock/freeBlock: %v allocs per cycle, want 0", allocs)
	}
	p.freeBlock(held, 4)
	if p.FreeUnits() != 1<<20 {
		t.Fatalf("FreeUnits = %d after the cycle, want %d", p.FreeUnits(), 1<<20)
	}
}

// TestGrowTruncateAllocatesNothing: once the file's block and extent lists
// have grown to size, a grow/truncate cycle reuses them and the policy's
// Grow scratch, so it allocates nothing.
func TestGrowTruncateAllocatesNothing(t *testing.T) {
	p := newPolicy(t, 1<<20)
	f := p.NewFile(0)
	allocs := testing.AllocsPerRun(100, func() {
		for f.AllocatedUnits() < 64 {
			if _, err := f.Grow(1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.Grow(1000); err != nil { // several blocks in one call
			t.Fatal(err)
		}
		f.TruncateTo(0)
	})
	if allocs != 0 {
		t.Fatalf("grow/truncate cycle: %v allocs, want 0", allocs)
	}
}
