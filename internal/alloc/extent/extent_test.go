package extent

import (
	"math/rand"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/sim"
	"rofs/internal/units"
)

func newPolicy(t *testing.T, total int64, fit Fit, ranges ...int64) *Policy {
	t.Helper()
	p, err := New(Config{
		TotalUnits: total,
		Fit:        fit,
		RangeMeans: ranges,
		RNG:        sim.NewRNG(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	bad := []Config{
		{TotalUnits: 0, RangeMeans: []int64{4}, RNG: rng},
		{TotalUnits: 100, RangeMeans: nil, RNG: rng},
		{TotalUnits: 100, RangeMeans: []int64{8, 4}, RNG: rng},
		{TotalUnits: 100, RangeMeans: []int64{0}, RNG: rng},
		{TotalUnits: 100, RangeMeans: []int64{4}, RNG: nil},
		{TotalUnits: 100, RangeMeans: []int64{4}, DevFraction: 2, RNG: rng},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestRangeSelectionRule(t *testing.T) {
	// Largest mean <= hint; smallest when none qualifies (DESIGN.md §4).
	p := newPolicy(t, 1<<30, FirstFit, 1, 4, 8, 1024)
	cases := []struct{ hint, want int64 }{
		{0, 1}, // below all ranges: smallest
		{1, 1},
		{3, 1},
		{4, 4},
		{7, 4},
		{16, 8},
		{1024, 1024},
		{1 << 20, 1024},
	}
	for _, c := range cases {
		if got := p.rangeFor(c.hint); got != c.want {
			t.Errorf("rangeFor(%d) = %d, want %d", c.hint, got, c.want)
		}
	}
}

func TestExtentSizesFollowRange(t *testing.T) {
	p := newPolicy(t, 1<<30, FirstFit, 512)
	f := p.NewFile(512).(*file)
	// The creating Grow is cut to fit; incremental growth draws whole
	// extents from the range — those are what we sample.
	if _, err := f.Grow(10); err != nil {
		t.Fatal(err)
	}
	var sum float64
	n := 0
	for i := 0; i < 200; i++ {
		added, err := f.Grow(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range added {
			sum += float64(e.Len)
			n++
			// ±5 sigma around the mean.
			if e.Len < 512-5*52 || e.Len > 512+5*52 {
				t.Fatalf("extent size %d wildly off the 512±51 range", e.Len)
			}
		}
	}
	mean := sum / float64(n)
	if mean < 490 || mean > 535 {
		t.Fatalf("mean extent size %g, want ≈512", mean)
	}
}

func TestFirstFitPrefersLowAddresses(t *testing.T) {
	p := newPolicy(t, 10000, FirstFit, 100)
	a := p.NewFile(100)
	if _, err := a.Grow(300); err != nil {
		t.Fatal(err)
	}
	b := p.NewFile(100)
	if _, err := b.Grow(300); err != nil {
		t.Fatal(err)
	}
	// Free the first file: its low addresses become the first fit again.
	a.TruncateTo(0)
	c := p.NewFile(100)
	added, err := c.Grow(100)
	if err != nil {
		t.Fatal(err)
	}
	if added[0].Start != 0 {
		t.Fatalf("first-fit reallocated at %d, want 0", added[0].Start)
	}
}

func TestBestFitPicksTightHole(t *testing.T) {
	p := newPolicy(t, 100000, BestFit, 10)
	// Carve the space into holes of decreasing tightness by hand.
	p.free.Alloc(0, 100000)
	p.free.Insert(500, 11)  // tight hole
	p.free.Insert(2000, 50) // loose hole
	f := p.NewFile(10).(*file)
	// Force a deterministic draw by using a tiny deviation policy: draw
	// sizes cluster at 10; the 11-unit hole is best fit for any <=11 draw.
	added, err := f.Grow(5)
	if err != nil {
		t.Fatal(err)
	}
	if added[0].Start != 500 {
		t.Fatalf("best-fit chose %d, want the tight hole at 500", added[0].Start)
	}
}

func TestGrowFailureRollsBack(t *testing.T) {
	p := newPolicy(t, 1000, FirstFit, 400)
	f := p.NewFile(400)
	// First extent (~400) fits; the request for ~1200 total cannot be
	// completed and must roll back fully.
	if _, err := f.Grow(1200); err != alloc.ErrNoSpace {
		t.Fatalf("Grow = %v, want ErrNoSpace", err)
	}
	if f.AllocatedUnits() != 0 || p.FreeUnits() != 1000 {
		t.Fatalf("rollback incomplete: allocated=%d free=%d",
			f.AllocatedUnits(), p.FreeUnits())
	}
	if p.FreeRuns() != 1 {
		t.Fatalf("rollback left %d free runs, want 1 coalesced", p.FreeRuns())
	}
}

func TestTruncateFreesWholeExtentsOnly(t *testing.T) {
	p := newPolicy(t, 100000, FirstFit, 1000)
	f := p.NewFile(1000).(*file)
	if _, err := f.Grow(3000); err != nil { // ~3 extents, last cut to fit
		t.Fatal(err)
	}
	total := f.AllocatedUnits()
	pieces := f.ExtentCount()
	// A trim smaller than the last extent frees nothing: extents are the
	// unit of deallocation.
	f.TruncateTo(total - 100)
	if f.AllocatedUnits() != total || f.ExtentCount() != pieces {
		t.Fatalf("sub-extent truncate freed space: %d -> %d", total, f.AllocatedUnits())
	}
	// Trimming past the last extent's start frees exactly that extent.
	lastLen := f.pieces[len(f.pieces)-1].Len
	f.TruncateTo(total - lastLen)
	if f.AllocatedUnits() != total-lastLen || f.ExtentCount() != pieces-1 {
		t.Fatalf("whole-extent truncate wrong: allocated=%d extents=%d",
			f.AllocatedUnits(), f.ExtentCount())
	}
	f.TruncateTo(0)
	if f.AllocatedUnits() != 0 || f.ExtentCount() != 0 {
		t.Fatal("TruncateTo(0) left allocation")
	}
	if p.FreeUnits() != 100000 || p.FreeRuns() != 1 {
		t.Fatalf("space not fully restored: free=%d runs=%d", p.FreeUnits(), p.FreeRuns())
	}
}

func TestSizedCreationCutsFinalExtent(t *testing.T) {
	p := newPolicy(t, 1<<20, FirstFit, 1000)
	f := p.NewFile(1000)
	if _, err := f.Grow(2500); err != nil { // creation: exact fit
		t.Fatal(err)
	}
	if f.AllocatedUnits() != 2500 {
		t.Fatalf("sized creation allocated %d, want exactly 2500", f.AllocatedUnits())
	}
	// Subsequent growth preallocates whole drawn extents.
	if _, err := f.Grow(1); err != nil {
		t.Fatal(err)
	}
	if f.AllocatedUnits() < 2500+800 { // a whole ~1000-unit extent
		t.Fatalf("incremental growth allocated only %d", f.AllocatedUnits()-2500)
	}
}

func TestExtentCountVsMergedView(t *testing.T) {
	p := newPolicy(t, 1<<20, FirstFit, 100)
	f := p.NewFile(100).(*file)
	for i := 0; i < 5; i++ {
		if _, err := f.Grow(1); err != nil {
			t.Fatal(err)
		}
	}
	// First-fit on an empty disk allocates back to back: one merged extent
	// for I/O, but five logical extents for Table 4.
	if f.ExtentCount() != 5 {
		t.Fatalf("ExtentCount = %d, want 5", f.ExtentCount())
	}
	if len(f.Extents()) != 1 {
		t.Fatalf("merged extents = %d, want 1 (back-to-back first fit)", len(f.Extents()))
	}
	if alloc.Sum(f.Extents()) != f.AllocatedUnits() {
		t.Fatal("merged view loses units")
	}
}

func TestRandomizedConservation(t *testing.T) {
	const total = 200000
	p := newPolicy(t, total, FirstFit, 64, 512)
	rng := rand.New(rand.NewSource(9))
	type entry struct{ f alloc.File }
	var files []entry
	for step := 0; step < 4000; step++ {
		switch rng.Intn(3) {
		case 0, 1:
			var f alloc.File
			if len(files) > 0 && rng.Intn(2) == 0 {
				f = files[rng.Intn(len(files))].f
			} else {
				hint := int64(64)
				if rng.Intn(2) == 0 {
					hint = 512
				}
				f = p.NewFile(hint)
				files = append(files, entry{f})
			}
			if _, err := f.Grow(int64(rng.Intn(400) + 1)); err != nil && err != alloc.ErrNoSpace {
				t.Fatal(err)
			}
		case 2:
			if len(files) > 0 {
				f := files[rng.Intn(len(files))].f
				f.TruncateTo(rng.Int63n(f.AllocatedUnits() + 1))
			}
		}
		if step%250 == 0 {
			var used int64
			var all []alloc.Extent
			for _, e := range files {
				used += e.f.AllocatedUnits()
				all = append(all, e.f.Extents()...)
			}
			if used+p.FreeUnits() != total {
				t.Fatalf("step %d: used %d + free %d != %d", step, used, p.FreeUnits(), total)
			}
			if err := alloc.Validate(all, total); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
}

func TestNameAndSizes(t *testing.T) {
	p := newPolicy(t, units.MB, BestFit, 4, 8, 16)
	if p.Name() != "extent(best-fit,3 ranges)" {
		t.Fatalf("Name = %q", p.Name())
	}
	if p.TotalUnits() != units.MB {
		t.Fatal("TotalUnits wrong")
	}
}

// TestGrowTruncateAllocatesNothing: once the file's extent lists have
// grown to size, a cycle of a sized creation, incremental growth and a
// truncation to zero reuses them, the policy's Grow scratch and the free
// list's nodes, so it allocates nothing.
func TestGrowTruncateAllocatesNothing(t *testing.T) {
	for _, fit := range []Fit{FirstFit, BestFit} {
		p := newPolicy(t, 1<<20, fit, 8, 64)
		f := p.NewFile(64)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := f.Grow(300); err != nil { // creation, cut to fit
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if _, err := f.Grow(1); err != nil {
					t.Fatal(err)
				}
			}
			f.TruncateTo(0)
		})
		if allocs != 0 {
			t.Fatalf("%v: grow/truncate cycle: %v allocs, want 0", fit, allocs)
		}
	}
}
