package rbuddy

import (
	"fmt"
	"math/rand"
	"testing"

	"rofs/internal/alloc"
)

// sizes555 is the paper's 5-size configuration in 1K units.
var sizes5 = []int64{1, 8, 64, 1024, 16384}

func newPolicy(t *testing.T, cfg Config) *Policy {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func simple(t *testing.T, total int64, sizes []int64, g float64) *Policy {
	return newPolicy(t, Config{TotalUnits: total, SizesUnits: sizes, GrowFactor: g})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{TotalUnits: 0, SizesUnits: []int64{1}},
		{TotalUnits: 100, SizesUnits: nil},
		{TotalUnits: 100, SizesUnits: []int64{8, 1}},
		{TotalUnits: 100, SizesUnits: []int64{2, 3}}, // 2 does not divide 3
		{TotalUnits: 100, SizesUnits: []int64{0, 8}},
		{TotalUnits: 100, SizesUnits: []int64{1, 8}, GrowFactor: -1},
		{TotalUnits: 100, SizesUnits: []int64{1, 8}, Clustered: true}, // no region size
		{TotalUnits: 100, SizesUnits: []int64{1, 8}, Clustered: true, RegionUnits: 12},
		{TotalUnits: 1 << 20, SizesUnits: []int64{1, 2, 4, 8, 16, 32}}, // more than maxSizes
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestInitialCoverage(t *testing.T) {
	// 100 units with sizes {1,8}: 12 eight-blocks + 4 one-blocks = 100.
	p := simple(t, 100, []int64{1, 8}, 1)
	if p.FreeUnits() != 100 {
		t.Fatalf("FreeUnits = %d", p.FreeUnits())
	}
	counts := p.FreeBlockCounts()
	if counts[1] != 12 || counts[0] != 4 {
		t.Fatalf("initial free blocks = %v, want [4 12]", counts)
	}
}

func TestGrowPolicySequence(t *testing.T) {
	for _, tc := range []struct {
		g    float64
		want []int64 // sizes of the first blocks allocated
	}{
		{1, []int64{1, 1, 1, 1, 1, 1, 1, 1, 8, 8}},
		{1.5, []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 8}},
		{2, []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 8}},
	} {
		p := simple(t, 1<<16, []int64{1, 8, 64}, tc.g)
		f := p.NewFile(0).(*file)
		for range tc.want {
			if _, err := f.Grow(1); err != nil {
				t.Fatal(err)
			}
		}
		for i, b := range f.blocks {
			if got := p.sizes[b.class]; got != tc.want[i] {
				t.Fatalf("g=%g: block %d size %d, want %d", tc.g, i, got, tc.want[i])
			}
		}
	}
}

func TestContiguousAllocation(t *testing.T) {
	// On an empty disk, a growing file should be laid out contiguously
	// while block sizes stay aligned: 8×1 then 8×8 = one extent [0,72).
	p := simple(t, 1<<16, []int64{1, 8, 64}, 1)
	f := p.NewFile(0)
	for i := 0; i < 16; i++ {
		if _, err := f.Grow(1); err != nil {
			t.Fatal(err)
		}
	}
	ext := f.Extents()
	if len(ext) != 1 || ext[0] != (alloc.Extent{Start: 0, Len: 72}) {
		t.Fatalf("extents = %v, want one extent [0,+72)", ext)
	}
}

func TestFigure3GrowBreak(t *testing.T) {
	// The Figure 3 interaction: with g=1 and sizes {1,8,64}, a file holds
	// 8 + 64 = 72 units when the block size grows to 64 — but the next
	// aligned 64-block starts at 128, so the file pays a discontinuity.
	p := simple(t, 1<<16, []int64{1, 8, 64}, 1)
	f := p.NewFile(0)
	if _, err := f.Grow(73); err != nil { // forces the first 64-block
		t.Fatal(err)
	}
	ext := f.Extents()
	if len(ext) != 2 {
		t.Fatalf("extents = %v, want the Figure 3 split", ext)
	}
	if ext[0] != (alloc.Extent{Start: 0, Len: 72}) || ext[1] != (alloc.Extent{Start: 128, Len: 64}) {
		t.Fatalf("extents = %v, want [0,+72) and [128,+64)", ext)
	}
	// The skipped hole [72,128) must still be free.
	if p.FreeUnits() != 1<<16-72-64 {
		t.Fatalf("FreeUnits = %d", p.FreeUnits())
	}
}

func TestSplitLargerBlock(t *testing.T) {
	// All space starts as 64-blocks; a 1-unit allocation must split one,
	// leaving 7 one-blocks and 7 eight-blocks free inside it.
	p := simple(t, 64, []int64{1, 8, 64}, 1)
	f := p.NewFile(0)
	if _, err := f.Grow(1); err != nil {
		t.Fatal(err)
	}
	counts := p.FreeBlockCounts()
	if counts[0] != 7 || counts[1] != 7 || counts[2] != 0 {
		t.Fatalf("free blocks after split = %v, want [7 7 0]", counts)
	}
	if p.FreeUnits() != 63 {
		t.Fatalf("FreeUnits = %d", p.FreeUnits())
	}
}

func TestCoalescingRestoresLargeBlocks(t *testing.T) {
	p := simple(t, 128, []int64{1, 8, 64}, 1)
	var files []alloc.File
	for i := 0; i < 16; i++ {
		f := p.NewFile(0)
		if _, err := f.Grow(8); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if p.FreeUnits() != 0 {
		t.Fatalf("free = %d after filling", p.FreeUnits())
	}
	for _, f := range files {
		f.TruncateTo(0)
	}
	counts := p.FreeBlockCounts()
	if counts[2] != 2 || counts[1] != 0 || counts[0] != 0 {
		t.Fatalf("free blocks after full release = %v, want [0 0 2]", counts)
	}
}

func TestStrictFailureDespiteFreeSpace(t *testing.T) {
	p := simple(t, 64, []int64{1, 8}, 1)
	// Pin every other 1-unit block so no 8-block can ever coalesce.
	var files []alloc.File
	for i := 0; i < 64; i++ {
		f := p.NewFile(0)
		if _, err := f.Grow(1); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	for i := 0; i < 64; i += 2 {
		files[i].TruncateTo(0)
	}
	if p.FreeUnits() != 32 {
		t.Fatalf("free = %d", p.FreeUnits())
	}
	// A file needing an 8-block fails: half the disk is free but only in
	// fragmented 1-blocks.
	big := p.NewFile(0)
	if _, err := big.Grow(9); err != alloc.ErrNoSpace {
		t.Fatalf("Grow = %v, want ErrNoSpace", err)
	}
	if big.AllocatedUnits() != 0 {
		t.Fatal("failed Grow left allocation")
	}
}

func TestClusteredFdRegionsRotate(t *testing.T) {
	p := newPolicy(t, Config{
		TotalUnits:  4 * 64,
		SizesUnits:  []int64{1, 8, 64},
		GrowFactor:  1,
		Clustered:   true,
		RegionUnits: 64,
	})
	// Consecutive new files get consecutive regions (the "next region"
	// descriptor rule), so their first blocks land in different regions.
	a := p.NewFile(0).(*file)
	b := p.NewFile(0).(*file)
	c := p.NewFile(0).(*file)
	if a.fdRegion == b.fdRegion || b.fdRegion == c.fdRegion {
		t.Fatalf("fd regions %d,%d,%d did not rotate", a.fdRegion, b.fdRegion, c.fdRegion)
	}
	for _, f := range []*file{a, b, c} {
		if _, err := f.Grow(1); err != nil {
			t.Fatal(err)
		}
	}
	ra := p.region(a.blocks[0].addr)
	rb := p.region(b.blocks[0].addr)
	rc := p.region(c.blocks[0].addr)
	if ra == rb || rb == rc {
		t.Fatalf("first blocks in regions %d,%d,%d; want clustering to spread them", ra, rb, rc)
	}
}

func TestClusteredKeepsFileInRegion(t *testing.T) {
	p := newPolicy(t, Config{
		TotalUnits:  4 * 64,
		SizesUnits:  []int64{1, 8, 64},
		GrowFactor:  1,
		Clustered:   true,
		RegionUnits: 64,
	})
	f := p.NewFile(0).(*file)
	for i := 0; i < 8; i++ {
		if _, err := f.Grow(1); err != nil {
			t.Fatal(err)
		}
	}
	r := p.region(f.blocks[0].addr)
	for _, b := range f.blocks {
		if p.region(b.addr) != r {
			t.Fatalf("block at %d left region %d", b.addr, r)
		}
	}
}

func TestTruncateRecomputesLevel(t *testing.T) {
	p := simple(t, 1<<16, []int64{1, 8, 64}, 1)
	f := p.NewFile(0).(*file)
	if _, err := f.Grow(73); err != nil { // ends at level 2 (64-blocks)
		t.Fatal(err)
	}
	if f.level != 2 {
		t.Fatalf("level = %d, want 2", f.level)
	}
	f.TruncateTo(4) // back to a few 1-blocks
	if f.level != 0 {
		t.Fatalf("level after truncate = %d, want 0", f.level)
	}
	if f.AllocatedUnits() != 4 {
		t.Fatalf("allocated = %d", f.AllocatedUnits())
	}
	// Growing again resumes with 1-unit blocks.
	added, err := f.Grow(1)
	if err != nil {
		t.Fatal(err)
	}
	if added[0].Len != 1 {
		t.Fatalf("post-truncate block size %d, want 1", added[0].Len)
	}
}

func TestGrowFailureIsAtomic(t *testing.T) {
	p := simple(t, 64, []int64{1, 8}, 1)
	f := p.NewFile(0)
	if _, err := f.Grow(60); err != nil {
		t.Fatal(err)
	}
	free0 := p.FreeUnits()
	g := p.NewFile(0)
	if _, err := g.Grow(60); err != alloc.ErrNoSpace {
		t.Fatalf("Grow = %v", err)
	}
	if p.FreeUnits() != free0 {
		t.Fatalf("failed grow leaked space: %d -> %d", free0, p.FreeUnits())
	}
}

func TestPaperConfiguration(t *testing.T) {
	// The paper's full 5-size clustered configuration over 2.7G: exercise
	// a large file's growth through all five classes.
	p := newPolicy(t, Config{
		TotalUnits:  2764800,
		SizesUnits:  sizes5,
		GrowFactor:  1,
		Clustered:   true,
		RegionUnits: 32 * 1024, // 32M in 1K units
	})
	f := p.NewFile(0).(*file)
	if _, err := f.Grow(500 * 1024); err != nil { // a 500M file
		t.Fatal(err)
	}
	if f.level != 4 {
		t.Fatalf("level = %d, want 4 (16M blocks)", f.level)
	}
	// 8×1K + 8×8K + 16×64K + 16×1M + N×16M: block count stays small.
	if n := f.BlockCount(); n > 80 {
		t.Fatalf("500M file used %d blocks; expected well under 80", n)
	}
	if err := alloc.Validate(f.Extents(), p.TotalUnits()); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedConservation(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		const total = 4096
		p := newPolicy(t, Config{
			TotalUnits:  total,
			SizesUnits:  []int64{1, 8, 64},
			GrowFactor:  1,
			Clustered:   clustered,
			RegionUnits: 512,
		})
		rng := rand.New(rand.NewSource(21))
		var files []alloc.File
		for step := 0; step < 4000; step++ {
			if rng.Intn(3) < 2 {
				var f alloc.File
				if len(files) > 0 && rng.Intn(2) == 0 {
					f = files[rng.Intn(len(files))]
				} else {
					f = p.NewFile(0)
					files = append(files, f)
				}
				if _, err := f.Grow(int64(rng.Intn(32) + 1)); err != nil && err != alloc.ErrNoSpace {
					t.Fatal(err)
				}
			} else if len(files) > 0 {
				f := files[rng.Intn(len(files))]
				f.TruncateTo(rng.Int63n(f.AllocatedUnits() + 1))
			}
			if step%250 == 0 {
				var used int64
				var all []alloc.Extent
				for _, f := range files {
					used += f.AllocatedUnits()
					all = append(all, f.Extents()...)
				}
				if used+p.FreeUnits() != total {
					t.Fatalf("clustered=%v step %d: used %d + free %d != %d",
						clustered, step, used, p.FreeUnits(), total)
				}
				if err := alloc.Validate(all, total); err != nil {
					t.Fatalf("clustered=%v step %d: %v", clustered, step, err)
				}
			}
		}
	}
}

func TestBlockAlignmentInvariant(t *testing.T) {
	p := simple(t, 1<<14, []int64{1, 8, 64, 512}, 2)
	rng := rand.New(rand.NewSource(2))
	var files []*file
	for i := 0; i < 30; i++ {
		f := p.NewFile(0).(*file)
		if _, err := f.Grow(int64(rng.Intn(600) + 1)); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	for _, f := range files {
		for _, b := range f.blocks {
			size := p.sizes[b.class]
			if b.addr%size != 0 {
				t.Fatalf("block at %d size %d misaligned", b.addr, size)
			}
		}
	}
}

// TestDoubleFreePanics frees an allocated block twice. A sibling stays
// allocated, so the first free cannot coalesce and the second finds the
// block still free in its class.
func TestDoubleFreePanics(t *testing.T) {
	for _, c := range []struct {
		name      string
		clustered bool
		class     int
		want      string
	}{
		{"class 0", false, 0, "rbuddy: free of already-free block at 0 (class 0, 1 units)"},
		{"class 1", false, 1, "rbuddy: free of already-free block at 0 (class 1, 8 units)"},
		{"clustered class 2", true, 2, "rbuddy: free of already-free block at 0 (class 2, 64 units)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{TotalUnits: 1 << 12, SizesUnits: []int64{1, 8, 64, 512}}
			if c.clustered {
				cfg.Clustered, cfg.RegionUnits = true, 1024
			}
			p := newPolicy(t, cfg)
			first, err := p.allocBlock(c.class, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.allocBlock(c.class, 0, 0); err != nil {
				t.Fatal(err)
			}
			p.freeBlock(first, c.class)
			defer func() {
				if r := recover(); fmt.Sprint(r) != c.want {
					t.Fatalf("second free panicked with %v, want %q", r, c.want)
				}
			}()
			p.freeBlock(first, c.class)
		})
	}
}

// TestAllocFreeAllocatesNothing: allocating a block of each class (split
// from larger free blocks, through every region-selection step) and
// freeing it (coalescing back) touches only the per-class bitmaps.
func TestAllocFreeAllocatesNothing(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		cfg := Config{TotalUnits: 1 << 20, SizesUnits: sizes5}
		if clustered {
			cfg.Clustered, cfg.RegionUnits = true, 32768
		}
		p := newPolicy(t, cfg)
		held, err := p.allocBlock(0, 0, 0) // keeps coalescing from reaching the top
		if err != nil {
			t.Fatal(err)
		}
		class, lastEnd := 0, int64(0)
		allocs := testing.AllocsPerRun(1000, func() {
			addr, err := p.allocBlock(class, lastEnd, 1)
			if err != nil {
				t.Fatal(err)
			}
			p.freeBlock(addr, class)
			class = (class + 1) % len(sizes5)
			lastEnd = (lastEnd + 77777) % cfg.TotalUnits
		})
		if allocs != 0 {
			t.Fatalf("clustered=%v: allocBlock/freeBlock: %v allocs per cycle, want 0", clustered, allocs)
		}
		p.freeBlock(held, 0)
		if p.FreeUnits() != p.TotalUnits() {
			t.Fatalf("clustered=%v: FreeUnits = %d after the cycle, want %d",
				clustered, p.FreeUnits(), p.TotalUnits())
		}
	}
}

// TestGrowTruncateAllocatesNothing: once the file's block and extent lists
// have grown to size, a grow/truncate cycle up the block-size ladder
// reuses them and the policy's Grow scratch, so it allocates nothing.
func TestGrowTruncateAllocatesNothing(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		cfg := Config{TotalUnits: 1 << 20, SizesUnits: sizes5}
		if clustered {
			cfg.Clustered, cfg.RegionUnits = true, 32768
		}
		p := newPolicy(t, cfg)
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
			t.Fatalf("clustered=%v: grow/truncate cycle: %v allocs, want 0", clustered, allocs)
		}
	}
}
