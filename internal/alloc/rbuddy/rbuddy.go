// Package rbuddy implements the restricted buddy system of §4.2 — the
// paper's primary contribution. The policy supports a small set of block
// sizes (e.g. 1K, 8K, 64K, 1M, 16M); as a file grows, so does the block
// size it allocates, governed by a grow-policy multiplier g: allocation
// moves from size a_i to a_{i+1} once the file holds g·a_{i+1} bytes in
// a_i-sized blocks. Logically sequential blocks are placed physically
// contiguously whenever possible, so even files built from small blocks
// can be read with few seeks.
//
// Free space is one bitmap per size class, searched in address order: the
// paper keeps a bitmap over the maximal blocks and sorted free lists for
// the smaller ones, and one bit per block serves every class. Generalized
// buddy semantics hold: a block of size N always starts at a multiple of
// N, larger free blocks are split on demand, and whenever every sibling of
// a parent block is free the siblings coalesce back into the parent.
//
// A clustered configuration divides the disk into fixed bookkeeping
// regions (32M in the paper) and applies the paper's region-selection
// algorithm:
//
//  1. the optimal region — the region of the file's most recently
//     allocated block, or of its file descriptor, or (for descriptor
//     allocations) the region after the last satisfied request;
//  2. any region holding a block of the correct size;
//  3. the next region with available space (splitting a larger block).
//
// In the unclustered configuration every block is eligible at each step.
package rbuddy

import (
	"fmt"

	"rofs/internal/alloc"
	"rofs/internal/container/bitset"
	"rofs/internal/units"
)

// maxSizes is the most block sizes a policy supports: the paper's largest
// configuration, {1K,8K,64K,1M,16M}. A file keeps its per-class unit
// counts in a fixed array of this length.
const maxSizes = 5

// Config parameterizes the policy. Sizes are in disk units.
type Config struct {
	TotalUnits int64
	// SizesUnits are the supported block sizes, ascending; each must
	// divide the next (the paper's configurations: {1K,8K}, {1K,8K,64K},
	// {1K,8K,64K,1M}, {1K,8K,64K,1M,16M}, expressed in units). At most
	// maxSizes.
	SizesUnits []int64
	// GrowFactor is the grow-policy multiplier g (the paper evaluates 1
	// and 2; fractional factors such as 1.5 interpolate between them).
	// Defaults to 1.
	GrowFactor float64
	// Clustered enables bookkeeping regions.
	Clustered bool
	// RegionUnits is the bookkeeping region size (the paper's 32M, in
	// units). Required when Clustered; must be a multiple of the largest
	// block size.
	RegionUnits int64
}

func (c *Config) validate() error {
	if c.TotalUnits <= 0 {
		return fmt.Errorf("rbuddy: TotalUnits %d must be positive", c.TotalUnits)
	}
	if len(c.SizesUnits) == 0 {
		return fmt.Errorf("rbuddy: no block sizes")
	}
	if len(c.SizesUnits) > maxSizes {
		return fmt.Errorf("rbuddy: %d block sizes, at most %d supported", len(c.SizesUnits), maxSizes)
	}
	prev := int64(0)
	for i, s := range c.SizesUnits {
		if s <= 0 {
			return fmt.Errorf("rbuddy: non-positive block size %d", s)
		}
		if i > 0 {
			if s <= prev {
				return fmt.Errorf("rbuddy: sizes not ascending at %d", i)
			}
			if s%prev != 0 {
				return fmt.Errorf("rbuddy: size %d does not divide %d", prev, s)
			}
		}
		prev = s
	}
	if c.GrowFactor == 0 {
		c.GrowFactor = 1
	}
	if c.GrowFactor < 1 {
		return fmt.Errorf("rbuddy: GrowFactor %g must be >= 1", c.GrowFactor)
	}
	if c.Clustered {
		maxSize := c.SizesUnits[len(c.SizesUnits)-1]
		if c.RegionUnits <= 0 {
			return fmt.Errorf("rbuddy: clustered configuration needs RegionUnits")
		}
		if c.RegionUnits%maxSize != 0 {
			return fmt.Errorf("rbuddy: RegionUnits %d not a multiple of the largest block %d",
				c.RegionUnits, maxSize)
		}
	}
	return nil
}

// Policy is a restricted buddy allocator. Create with New.
type Policy struct {
	cfg   Config
	sizes []int64
	// classes[c] is the free map of blocks of size sizes[c]: member k is
	// the free block at k·sizes[c].
	classes []*bitset.Set
	free    int64
	stats   alloc.OpStats

	nRegions      int
	lastSatisfied int // region index of the last satisfied request

	// grownBlocks and grown are Grow's reusable scratch: the blocks one
	// call takes, and their extents folded with AppendExtent. Grow
	// commits from them, rolls back from them and returns grown.
	grownBlocks []rblock
	grown       []alloc.Extent
	// files, blocks and extents hold the file handles and their lists'
	// first backing arrays.
	files   alloc.Slab[file]
	blocks  alloc.Slab[rblock]
	extents alloc.Slab[alloc.Extent]
}

// OpStats implements alloc.StatsReporter.
func (p *Policy) OpStats() alloc.OpStats { return p.stats }

// New builds a policy over cfg.TotalUnits units, all free.
func New(cfg Config) (*Policy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Policy{cfg: cfg, sizes: cfg.SizesUnits}
	p.classes = make([]*bitset.Set, len(p.sizes))
	for c, size := range p.sizes {
		p.classes[c] = bitset.New(cfg.TotalUnits / size)
	}
	if cfg.Clustered {
		p.nRegions = int(units.CeilDiv(cfg.TotalUnits, cfg.RegionUnits))
	} else {
		p.nRegions = 1
	}
	// Cover the space greedily with maximal aligned blocks. Space smaller
	// than the smallest block (a sub-1K tail) is unusable.
	for addr := int64(0); addr+p.sizes[0] <= cfg.TotalUnits; {
		c := 0
		for n := len(p.sizes) - 1; n > 0; n-- {
			if addr%p.sizes[n] == 0 && addr+p.sizes[n] <= cfg.TotalUnits {
				c = n
				break
			}
		}
		p.classes[c].Add(addr / p.sizes[c])
		p.free += p.sizes[c]
		addr += p.sizes[c]
	}
	return p, nil
}

// Name implements alloc.Policy.
func (p *Policy) Name() string {
	mode := "unclustered"
	if p.cfg.Clustered {
		mode = "clustered"
	}
	return fmt.Sprintf("rbuddy(%d sizes,g%g,%s)", len(p.sizes), p.cfg.GrowFactor, mode)
}

// TotalUnits implements alloc.Policy.
func (p *Policy) TotalUnits() int64 { return p.cfg.TotalUnits }

// FreeUnits implements alloc.Policy.
func (p *Policy) FreeUnits() int64 { return p.free }

// FreeBlockCounts returns how many free blocks exist per size class — a
// diagnostic for the compactness the paper claims for this free map.
func (p *Policy) FreeBlockCounts() []int {
	out := make([]int, len(p.classes))
	for c, set := range p.classes {
		out[c] = set.Len()
	}
	return out
}

// FreeSpaceStats implements alloc.FreeSpaceReporter: free blocks across
// all size classes are the fragments, the largest being the biggest class
// with a free block.
func (p *Policy) FreeSpaceStats() alloc.FreeSpaceStats {
	var st alloc.FreeSpaceStats
	for c, set := range p.classes {
		if n := set.Len(); n > 0 {
			st.Fragments += int64(n)
			st.LargestUnits = p.sizes[c]
		}
	}
	return st
}

func (p *Policy) region(addr int64) int {
	if !p.cfg.Clustered {
		return 0
	}
	return int(addr / p.cfg.RegionUnits)
}

func (p *Policy) regionBounds(r int) (lo, hi int64) {
	if !p.cfg.Clustered {
		return 0, p.cfg.TotalUnits
	}
	lo = int64(r) * p.cfg.RegionUnits
	hi = lo + p.cfg.RegionUnits
	if hi > p.cfg.TotalUnits {
		hi = p.cfg.TotalUnits
	}
	return lo, hi
}

// findExact returns a free block of class c within [lo, hi), preferring
// the first block at address >= hint (then wrapping to lo). It does not
// remove the block.
func (p *Policy) findExact(c int, lo, hi, hint int64) (int64, bool) {
	if hint > lo && hint < hi {
		if addr, ok := p.firstFrom(c, hint, hi); ok {
			return addr, true
		}
	}
	return p.firstFrom(c, lo, hi)
}

// firstFrom returns the lowest free class-c block in [from, to). Blocks
// start at multiples of the class size, so the first one at or after from
// is member ceil(from/size).
func (p *Policy) firstFrom(c int, from, to int64) (int64, bool) {
	size := p.sizes[c]
	k, ok := p.classes[c].Next(units.CeilDiv(from, size))
	if !ok || k*size >= to {
		return 0, false
	}
	return k * size, true
}

// findLarger returns a free block of the smallest class > c within
// [lo, hi), with the same hint preference.
func (p *Policy) findLarger(c int, lo, hi, hint int64) (int64, int, bool) {
	for s := c + 1; s < len(p.sizes); s++ {
		if addr, ok := p.findExact(s, lo, hi, hint); ok {
			return addr, s, true
		}
	}
	return 0, 0, false
}

// take removes a found block of class s and splits it down so that its
// lowest child of class c is allocated; the remaining siblings at each
// level become free blocks. It returns the allocated address.
func (p *Policy) take(addr int64, s, c int) int64 {
	if !p.classes[s].Remove(addr / p.sizes[s]) {
		panic(fmt.Sprintf("rbuddy: take of absent block %d class %d", addr, s))
	}
	for l := s - 1; l >= c; l-- {
		count := p.sizes[l+1] / p.sizes[l]
		first := addr / p.sizes[l]
		for k := first + 1; k < first+count; k++ {
			p.classes[l].Add(k)
		}
	}
	p.free -= p.sizes[c]
	p.stats.Allocs++
	p.lastSatisfied = p.region(addr)
	return addr
}

// claimAt allocates the specific class-c block at addr, splitting a
// containing larger free block if necessary. It reports whether addr was
// obtainable. addr must be aligned to sizes[c].
func (p *Policy) claimAt(addr int64, c int) bool {
	if addr < 0 || addr+p.sizes[c] > p.cfg.TotalUnits {
		return false
	}
	if p.classes[c].Remove(addr / p.sizes[c]) {
		p.free -= p.sizes[c]
		p.stats.Allocs++
		p.lastSatisfied = p.region(addr)
		return true
	}
	for s := c + 1; s < len(p.sizes); s++ {
		if !p.classes[s].Remove(addr / p.sizes[s]) {
			continue
		}
		// Split down level by level, keeping the child containing addr and
		// freeing its siblings.
		for l := s - 1; l >= c; l-- {
			first := units.RoundDown(addr, p.sizes[l+1]) / p.sizes[l]
			keep := addr / p.sizes[l]
			count := p.sizes[l+1] / p.sizes[l]
			for k := first; k < first+count; k++ {
				if k != keep {
					p.classes[l].Add(k)
				}
			}
		}
		p.free -= p.sizes[c]
		p.stats.Allocs++
		p.lastSatisfied = p.region(addr)
		return true
	}
	return false
}

// allocBlock allocates one block of class c following the paper's region
// selection algorithm. lastEnd is the end address of the file's most
// recent block (0 when the file is empty) and fdRegion the region of its
// descriptor.
func (p *Policy) allocBlock(c int, lastEnd int64, fdRegion int) (int64, error) {
	size := p.sizes[c]
	// Step 0: contiguity — the next sequential block of this size. (When
	// the block size just grew, this is the next *aligned* block, which is
	// the Figure 3 seek the paper discusses.)
	if lastEnd > 0 {
		if cand := units.RoundUp(lastEnd, size); p.claimAt(cand, c) {
			return cand, nil
		}
	}
	if p.cfg.Clustered {
		r := fdRegion
		if lastEnd > 0 {
			r = p.region(lastEnd - 1)
		}
		lo, hi := p.regionBounds(r)
		// Step 1a: a block of the correct size in the optimal region.
		if addr, ok := p.findExact(c, lo, hi, lastEnd); ok {
			return p.take(addr, c, c), nil
		}
		// Step 1b: adequate contiguous space in the optimal region — split
		// a larger block, preferably the next sequential one.
		if addr, s, ok := p.findLarger(c, lo, hi, lastEnd); ok {
			return p.take(addr, s, c), nil
		}
		// Step 2: any region with a block of the correct size.
		if addr, ok := p.findExact(c, 0, p.cfg.TotalUnits, lastEnd); ok {
			return p.take(addr, c, c), nil
		}
		// Step 3: only now does any block become split.
		if addr, s, ok := p.findLarger(c, 0, p.cfg.TotalUnits, lastEnd); ok {
			return p.take(addr, s, c), nil
		}
		return 0, alloc.ErrNoSpace
	}
	// Unclustered: correct size anywhere, then split anywhere.
	if addr, ok := p.findExact(c, 0, p.cfg.TotalUnits, lastEnd); ok {
		return p.take(addr, c, c), nil
	}
	if addr, s, ok := p.findLarger(c, 0, p.cfg.TotalUnits, lastEnd); ok {
		return p.take(addr, s, c), nil
	}
	return 0, alloc.ErrNoSpace
}

// freeBlock returns a class-c block and coalesces complete sibling sets
// back into their parents, level by level. Freeing a block that is still
// free at its own class is a double free and panics; one already merged
// into a free parent is not detected.
func (p *Policy) freeBlock(addr int64, c int) {
	if !p.classes[c].Add(addr / p.sizes[c]) {
		panic(fmt.Sprintf("rbuddy: free of already-free block at %d (class %d, %d units)",
			addr, c, p.sizes[c]))
	}
	p.free += p.sizes[c]
	p.stats.Frees++
	for c < len(p.sizes)-1 {
		parentSize := p.sizes[c+1]
		base := units.RoundDown(addr, parentSize)
		if base+parentSize > p.cfg.TotalUnits {
			break // a tail parent that can never be whole
		}
		count := parentSize / p.sizes[c]
		first := base / p.sizes[c]
		complete := true
		for k := first; k < first+count; k++ {
			if !p.classes[c].Contains(k) {
				complete = false
				break
			}
		}
		if !complete {
			break
		}
		for k := first; k < first+count; k++ {
			p.classes[c].Remove(k)
		}
		addr = base
		c++
		p.stats.Coalesces++
		p.classes[c].Add(addr / p.sizes[c])
	}
}

// NewFile implements alloc.Policy. The restricted buddy policy sizes
// blocks by the grow policy alone, so the hint is ignored.
func (p *Policy) NewFile(int64) alloc.File {
	f := p.files.New()
	f.p = p
	f.placeDescriptor()
	return f
}

// Rearm implements alloc.File: the emptied file gets a new descriptor,
// placed as NewFile places one.
func (f *file) Rearm(int64) {
	f.TruncateTo(0)
	f.placeDescriptor()
}

// placeDescriptor places a new file's descriptor: in a clustered
// configuration, in the region after the last satisfied request (the
// paper's "next region" rule), which then counts as the last satisfied
// request.
func (f *file) placeDescriptor() {
	if p := f.p; p.cfg.Clustered {
		f.fdRegion = (p.lastSatisfied + 1) % p.nRegions
		p.lastSatisfied = f.fdRegion
	}
}

type rblock struct {
	addr  int64
	class int
}

type file struct {
	p            *Policy
	blocks       []rblock
	extents      []alloc.Extent
	allocated    int64
	unitsAtClass [maxSizes]int64
	level        int
	lastEnd      int64
	fdRegion     int
}

func (f *file) Extents() []alloc.Extent { return f.extents }

func (f *file) AllocatedUnits() int64 { return f.allocated }

// BlockCount returns the number of blocks (before physical merging).
func (f *file) BlockCount() int { return len(f.blocks) }

// DescriptorCount is how many layout descriptors the file's metadata
// holds, for fs.MetaStats: one per block; the grow policy bounds blocks
// per size class, so descriptors stay few even for huge files.
func (f *file) DescriptorCount() int { return len(f.blocks) }

// nextClass advances the grow policy: allocation moves up a size once the
// file holds g·a_{i+1} units in a_i blocks (§4.2). Unit counts and block
// sizes are far below 2^53, so the float comparison is exact for integer
// grow factors and well-defined for fractional ones.
func nextClass(level int, unitsAtClass *[maxSizes]int64, sizes []int64, g float64) int {
	for level < len(sizes)-1 && float64(unitsAtClass[level]) >= g*float64(sizes[level+1]) {
		level++
	}
	return level
}

// Grow implements alloc.File: blocks of the grow-policy size are allocated
// until at least min units have been added. Nothing commits on failure.
func (f *file) Grow(min int64) ([]alloc.Extent, error) {
	if min <= 0 {
		return nil, nil
	}
	p := f.p
	// Tentative state: committed only if every block is obtained.
	uac := f.unitsAtClass
	level := f.level
	lastEnd := f.lastEnd
	var got int64
	blocks := p.grownBlocks[:0]
	for got < min {
		level = nextClass(level, &uac, p.sizes, p.cfg.GrowFactor)
		addr, err := p.allocBlock(level, lastEnd, f.fdRegion)
		if err != nil {
			for _, b := range blocks {
				p.freeBlock(b.addr, b.class)
			}
			p.grownBlocks = blocks
			return nil, err
		}
		size := p.sizes[level]
		blocks = append(blocks, rblock{addr, level})
		uac[level] += size
		lastEnd = addr + size
		got += size
	}
	p.grownBlocks = blocks
	f.blocks = append(p.blocks.Grow(f.blocks, len(blocks)), blocks...)
	f.unitsAtClass = uac
	f.level = level
	f.lastEnd = lastEnd
	f.allocated += got
	added := p.grown[:0]
	for _, b := range blocks {
		added = alloc.AppendExtent(added, alloc.Extent{Start: b.addr, Len: p.sizes[b.class]})
	}
	p.grown = added
	f.extents = alloc.AppendExtents(&p.extents, f.extents, added)
	return added, nil
}

// TruncateTo implements alloc.File: whole blocks wholly beyond the target
// are freed, and the grow-policy level is recomputed from what remains.
func (f *file) TruncateTo(target int64) {
	if target < 0 {
		target = 0
	}
	for len(f.blocks) > 0 {
		last := f.blocks[len(f.blocks)-1]
		size := f.p.sizes[last.class]
		if f.allocated-size < target {
			break
		}
		f.p.freeBlock(last.addr, last.class)
		f.blocks = f.blocks[:len(f.blocks)-1]
		f.allocated -= size
		f.unitsAtClass[last.class] -= size
		f.extents = alloc.TrimExtent(f.extents, size)
	}
	f.level = 0
	for i, u := range f.unitsAtClass {
		if u > 0 {
			f.level = i
		}
	}
	f.level = nextClass(f.level, &f.unitsAtClass, f.p.sizes, f.p.cfg.GrowFactor)
	if len(f.blocks) == 0 {
		f.lastEnd = 0
	} else {
		last := f.blocks[len(f.blocks)-1]
		f.lastEnd = last.addr + f.p.sizes[last.class]
	}
}
