package fixed

import (
	"fmt"
	"math/rand"
	"testing"

	"rofs/internal/alloc"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{TotalUnits: 0, BlockUnits: 4}); err == nil {
		t.Error("zero total accepted")
	}
	if _, err := New(Config{TotalUnits: 100, BlockUnits: 0}); err == nil {
		t.Error("zero block accepted")
	}
	if _, err := New(Config{TotalUnits: 3, BlockUnits: 4}); err == nil {
		t.Error("space smaller than one block accepted")
	}
}

func TestPartialBlockUnusable(t *testing.T) {
	p, err := New(Config{TotalUnits: 103, BlockUnits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalUnits() != 100 {
		t.Fatalf("TotalUnits = %d, want 100 (25 whole blocks)", p.TotalUnits())
	}
	if p.FreeUnits() != 100 {
		t.Fatalf("FreeUnits = %d", p.FreeUnits())
	}
}

func TestFreshSystemIsContiguous(t *testing.T) {
	for _, ord := range []Order{LIFO, AddressOrdered} {
		p, err := New(Config{TotalUnits: 1000, BlockUnits: 4, Order: ord})
		if err != nil {
			t.Fatal(err)
		}
		f := p.NewFile(0)
		if _, err := f.Grow(40); err != nil {
			t.Fatal(err)
		}
		ext := f.Extents()
		if len(ext) != 1 || ext[0] != (alloc.Extent{Start: 0, Len: 40}) {
			t.Fatalf("order %v: fresh allocation = %v, want one extent [0,+40)", ord, ext)
		}
	}
}

func TestGrowRoundsUpToBlocks(t *testing.T) {
	p, _ := New(Config{TotalUnits: 1000, BlockUnits: 4})
	f := p.NewFile(0)
	if _, err := f.Grow(1); err != nil {
		t.Fatal(err)
	}
	if f.AllocatedUnits() != 4 {
		t.Fatalf("allocated = %d, want one whole block", f.AllocatedUnits())
	}
}

func TestLIFOScattersAfterAging(t *testing.T) {
	p, _ := New(Config{TotalUnits: 4000, BlockUnits: 4, Order: LIFO})
	// Interleave-allocate two files, free one, then allocate a third: the
	// third file's blocks come back most-recently-freed-first, i.e. in
	// descending address order — discontiguous.
	a, b := p.NewFile(0), p.NewFile(0)
	for i := 0; i < 10; i++ {
		if _, err := a.Grow(4); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Grow(4); err != nil {
			t.Fatal(err)
		}
	}
	a.TruncateTo(0)
	c := p.NewFile(0)
	if _, err := c.Grow(40); err != nil {
		t.Fatal(err)
	}
	if len(c.Extents()) < 5 {
		t.Fatalf("aged LIFO allocation produced %d extents; expected scatter", len(c.Extents()))
	}
}

func TestAddressOrderedStaysCompact(t *testing.T) {
	p, _ := New(Config{TotalUnits: 4000, BlockUnits: 4, Order: AddressOrdered})
	a, b := p.NewFile(0), p.NewFile(0)
	for i := 0; i < 10; i++ {
		a.Grow(4)
		b.Grow(4)
	}
	a.TruncateTo(0)
	c := p.NewFile(0)
	if _, err := c.Grow(40); err != nil {
		t.Fatal(err)
	}
	// The freed blocks of a are the alternating low-address blocks; the
	// address-ordered allocator reuses them lowest-first, giving exactly
	// the scatter pattern of a's old blocks (10 extents) but starting at 0.
	if c.Extents()[0].Start != 0 {
		t.Fatalf("address-ordered did not reuse lowest block: %v", c.Extents()[0])
	}
}

func TestGrowFailureRollsBack(t *testing.T) {
	p, _ := New(Config{TotalUnits: 16, BlockUnits: 4})
	f := p.NewFile(0)
	if _, err := f.Grow(17); err != alloc.ErrNoSpace {
		t.Fatalf("Grow = %v, want ErrNoSpace", err)
	}
	if f.AllocatedUnits() != 0 || p.FreeUnits() != 16 {
		t.Fatal("rollback incomplete")
	}
}

func TestTruncate(t *testing.T) {
	p, _ := New(Config{TotalUnits: 1000, BlockUnits: 4})
	f := p.NewFile(0)
	f.Grow(40)
	f.TruncateTo(18) // keeps ceil(18/4)=5 blocks
	if f.AllocatedUnits() != 20 {
		t.Fatalf("allocated = %d, want 20", f.AllocatedUnits())
	}
	f.TruncateTo(0)
	if f.AllocatedUnits() != 0 || p.FreeUnits() != 1000 {
		t.Fatal("full truncate wrong")
	}
}

func TestRandomizedConservation(t *testing.T) {
	const total = 40000
	for _, ord := range []Order{LIFO, AddressOrdered} {
		p, _ := New(Config{TotalUnits: total, BlockUnits: 16, Order: ord})
		rng := rand.New(rand.NewSource(3))
		var files []alloc.File
		for step := 0; step < 3000; step++ {
			if rng.Intn(3) < 2 {
				var f alloc.File
				if len(files) > 0 && rng.Intn(2) == 0 {
					f = files[rng.Intn(len(files))]
				} else {
					f = p.NewFile(0)
					files = append(files, f)
				}
				if _, err := f.Grow(int64(rng.Intn(100) + 1)); err != nil && err != alloc.ErrNoSpace {
					t.Fatal(err)
				}
			} else if len(files) > 0 {
				f := files[rng.Intn(len(files))]
				f.TruncateTo(rng.Int63n(f.AllocatedUnits() + 1))
			}
			if step%300 == 0 {
				var used int64
				var all []alloc.Extent
				for _, f := range files {
					used += f.AllocatedUnits()
					all = append(all, f.Extents()...)
				}
				if used+p.FreeUnits() != p.TotalUnits() {
					t.Fatalf("order %v step %d: conservation violated", ord, step)
				}
				if err := alloc.Validate(all, p.TotalUnits()); err != nil {
					t.Fatalf("order %v step %d: %v", ord, step, err)
				}
			}
		}
	}
}

// TestDoubleFreePanics frees an allocated block twice in address-ordered
// mode, whose bitmap sees the block is already free.
func TestDoubleFreePanics(t *testing.T) {
	for _, c := range []struct {
		name       string
		blockUnits int64
		take       int // blocks allocated; the last one is freed twice
		want       string
	}{
		{"first block", 4, 1, "fixed(4u): free of already-free block at 0 (block 0)"},
		{"later block", 16, 3, "fixed(16u): free of already-free block at 32 (block 2)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := New(Config{TotalUnits: 1024, BlockUnits: c.blockUnits, Order: AddressOrdered})
			if err != nil {
				t.Fatal(err)
			}
			var b int64
			for i := 0; i < c.take; i++ {
				if b, err = p.allocBlock(); err != nil {
					t.Fatal(err)
				}
			}
			p.freeBlock(b)
			defer func() {
				if r := recover(); fmt.Sprint(r) != c.want {
					t.Fatalf("second free panicked with %v, want %q", r, c.want)
				}
			}()
			p.freeBlock(b)
		})
	}
}

// TestGrowTruncateAllocatesNothing: once the file's block and extent lists
// have grown to size, a grow/truncate cycle reuses them and the policy's
// Grow scratch, so it allocates nothing.
func TestGrowTruncateAllocatesNothing(t *testing.T) {
	for _, order := range []Order{LIFO, AddressOrdered} {
		p, err := New(Config{TotalUnits: 1 << 16, BlockUnits: 4, Order: order})
		if err != nil {
			t.Fatal(err)
		}
		f := p.NewFile(0)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := f.Grow(40); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if _, err := f.Grow(4); err != nil {
					t.Fatal(err)
				}
			}
			f.TruncateTo(0)
		})
		if allocs != 0 {
			t.Fatalf("order %d: grow/truncate cycle: %v allocs, want 0", order, allocs)
		}
	}
}
