// Package extent implements the extent-based allocation policy of §4.3,
// after the XPRS design [STON89]: every file has an extent size, each time
// the file grows past its allocation another extent-sized chunk is
// allocated, an extent "may begin at any address", and freed extents
// coalesce with free neighbours.
//
// The policy is parameterized by the fit discipline (first-fit or
// best-fit) and by a set of extent-size ranges, each a normal distribution
// with a standard deviation of 10% of its mean. A file draws its extents
// from the largest range mean <= its AllocationSize parameter (the
// smallest range when none qualifies) — the selection rule implied by
// Table 4's extents-per-file arithmetic (see DESIGN.md §4).
//
// As the paper does, no effort is made to place logically sequential
// extents contiguously: high bandwidth comes from choosing large extent
// sizes for large files.
package extent

import (
	"fmt"
	"sort"

	"rofs/internal/alloc"
	"rofs/internal/container/freelist"
	"rofs/internal/sim"
)

// Fit selects the free-run search discipline.
type Fit int

const (
	// FirstFit takes the lowest-addressed sufficient run. The paper finds
	// it performs slightly better "due to the slight clustering that
	// results from [the] tendency to allocate blocks toward the
	// 'beginning' of the disk system".
	FirstFit Fit = iota
	// BestFit takes the smallest sufficient run and consistently yields
	// less fragmentation in the paper's runs.
	BestFit
)

// String implements fmt.Stringer.
func (f Fit) String() string {
	if f == BestFit {
		return "best-fit"
	}
	return "first-fit"
}

// Config parameterizes the policy. Sizes are in disk units.
type Config struct {
	TotalUnits int64
	Fit        Fit
	// RangeMeans are the extent-size range means, ascending (e.g. the
	// paper's TP/SC 3-range configuration: 512K, 1M, 16M in units).
	RangeMeans []int64
	// DevFraction is the per-range standard deviation as a fraction of the
	// mean; the paper uses 0.10. Defaults to 0.10.
	DevFraction float64
	// RNG supplies the extent-size draws; required.
	RNG *sim.RNG
}

func (c *Config) validate() error {
	if c.TotalUnits <= 0 {
		return fmt.Errorf("extent: TotalUnits %d must be positive", c.TotalUnits)
	}
	if len(c.RangeMeans) == 0 {
		return fmt.Errorf("extent: no extent-size ranges")
	}
	if !sort.SliceIsSorted(c.RangeMeans, func(i, j int) bool { return c.RangeMeans[i] < c.RangeMeans[j] }) {
		return fmt.Errorf("extent: RangeMeans not ascending: %v", c.RangeMeans)
	}
	for _, m := range c.RangeMeans {
		if m <= 0 {
			return fmt.Errorf("extent: non-positive range mean %d", m)
		}
	}
	if c.DevFraction == 0 {
		c.DevFraction = 0.10
	}
	if c.DevFraction < 0 || c.DevFraction >= 1 {
		return fmt.Errorf("extent: DevFraction %g out of (0,1)", c.DevFraction)
	}
	if c.RNG == nil {
		return fmt.Errorf("extent: nil RNG")
	}
	return nil
}

// Policy is an extent-based allocator. Create with New.
type Policy struct {
	cfg   Config
	free  *freelist.T
	stats alloc.OpStats
	// grown is Grow's reusable scratch, the extents one call takes as
	// allocated; Grow commits from it, rolls back from it and returns it.
	grown []alloc.Extent
}

// OpStats implements alloc.StatsReporter. Coalesces come from the free
// map, which merges adjacent runs as extents are freed.
func (p *Policy) OpStats() alloc.OpStats {
	st := p.stats
	st.Coalesces = p.free.Coalesces()
	return st
}

// New builds a policy with the whole space free.
func New(cfg Config) (*Policy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Policy{cfg: cfg, free: freelist.New()}
	p.free.Insert(0, cfg.TotalUnits)
	return p, nil
}

// Name implements alloc.Policy.
func (p *Policy) Name() string {
	return fmt.Sprintf("extent(%s,%d ranges)", p.cfg.Fit, len(p.cfg.RangeMeans))
}

// TotalUnits implements alloc.Policy.
func (p *Policy) TotalUnits() int64 { return p.cfg.TotalUnits }

// FreeUnits implements alloc.Policy.
func (p *Policy) FreeUnits() int64 { return p.free.FreeUnits() }

// FreeRuns returns the number of maximal free runs (a fragmentation
// diagnostic).
func (p *Policy) FreeRuns() int { return p.free.Runs() }

// FreeSpaceStats implements alloc.FreeSpaceReporter: the free list's
// maximal runs are the fragments, its longest run the largest piece.
func (p *Policy) FreeSpaceStats() alloc.FreeSpaceStats {
	return alloc.FreeSpaceStats{
		Fragments:    int64(p.free.Runs()),
		LargestUnits: p.free.MaxRun(),
	}
}

// rangeFor returns the mean of the range a file with the given
// AllocationSize draws extents from: the largest mean <= hint, or the
// smallest range when none qualifies.
func (p *Policy) rangeFor(hint int64) int64 {
	chosen := p.cfg.RangeMeans[0]
	for _, m := range p.cfg.RangeMeans {
		if m <= hint {
			chosen = m
		}
	}
	return chosen
}

// NewFile implements alloc.Policy.
func (p *Policy) NewFile(sizeHint int64) alloc.File {
	return &file{p: p, rangeMean: p.rangeFor(sizeHint)}
}

// file is a per-file allocation handle.
type file struct {
	p         *Policy
	rangeMean int64
	// pieces are the extents exactly as allocated (Table 4 counts these);
	// merged is the physically coalesced view handed to the I/O path.
	pieces    []alloc.Extent
	merged    []alloc.Extent
	allocated int64
}

func (f *file) Extents() []alloc.Extent { return f.merged }

func (f *file) AllocatedUnits() int64 { return f.allocated }

// ExtentCount returns the number of extents as allocated (before physical
// merging) — the quantity Table 4 averages per file.
func (f *file) ExtentCount() int { return len(f.pieces) }

// DescriptorCount implements alloc.DescriptorCounter: one descriptor per
// as-allocated extent.
func (f *file) DescriptorCount() int { return len(f.pieces) }

// drawExtentUnits samples the file's extent size: N(mean, DevFraction·mean)
// truncated at one unit.
func (f *file) drawExtentUnits() int64 {
	mean := float64(f.rangeMean)
	return f.p.cfg.RNG.SizeNormal(mean, mean*f.p.cfg.DevFraction, 1)
}

// Grow implements alloc.File. Each iteration draws an extent size from the
// file's range and takes a sufficient free run under the configured fit;
// the request fails — and rolls back — if any drawn extent cannot be
// placed.
//
// When the file is being *created* (it had no allocation), the final
// extent is cut to the exact remaining need — the MVS-style sized
// allocation the paper's extent model descends from: at creation the size
// is known, so "there is little wasted space on the disk". Incremental
// growth of an existing file allocates whole drawn extents (the
// preallocation that gives extent systems their sequential bandwidth).
func (f *file) Grow(min int64) ([]alloc.Extent, error) {
	if min <= 0 {
		return nil, nil
	}
	p := f.p
	sized := f.allocated == 0
	added := p.grown[:0]
	var got int64
	for got < min {
		size := f.drawExtentUnits()
		if sized && size > min-got {
			size = min - got
		}
		var run freelist.Run
		var ok bool
		if p.cfg.Fit == BestFit {
			run, ok = p.free.BestFit(size)
		} else {
			run, ok = p.free.FirstFit(size)
		}
		if !ok {
			for _, e := range added {
				p.free.Insert(e.Start, e.Len)
				p.stats.Frees++
			}
			p.grown = added
			return nil, alloc.ErrNoSpace
		}
		p.free.Alloc(run.Addr, size)
		p.stats.Allocs++
		added = append(added, alloc.Extent{Start: run.Addr, Len: size})
		got += size
	}
	p.grown = added
	f.pieces = append(f.pieces, added...)
	f.merged = alloc.AppendExtents(f.merged, added)
	f.allocated += got
	return added, nil
}

// TruncateTo implements alloc.File. Extents are the unit of deallocation
// (as in MVS): only whole trailing extents wholly beyond the target are
// freed, so the holes truncation opens are extent-shaped and get recycled
// by later extent-sized requests — the effect behind the paper's low
// external fragmentation ("new extents are allocated to extents of the
// correct size", §4.3). A partially used final extent stays allocated.
func (f *file) TruncateTo(target int64) {
	if target < 0 {
		target = 0
	}
	for len(f.pieces) > 0 {
		last := f.pieces[len(f.pieces)-1]
		if f.allocated-last.Len < target {
			break
		}
		f.p.free.Insert(last.Start, last.Len)
		f.p.stats.Frees++
		f.allocated -= last.Len
		f.pieces = f.pieces[:len(f.pieces)-1]
		f.merged = alloc.TrimExtent(f.merged, last.Len)
	}
}
