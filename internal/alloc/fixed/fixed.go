// Package fixed implements the fixed-block baseline of the comparison
// section (§5): files are composed of fixed-size blocks (4K for the
// time-sharing comparison, 16K for transaction processing and
// supercomputing) allocated off a free list, with no bias "towards
// automatic striping or contiguous layout".
//
// Blocks are initially linked in address order — a fresh file system lays
// files out contiguously — but frees push blocks back on the *head* of the
// list, so as the system ages, logically sequential blocks of a file
// scatter across the disk exactly as in the V7 file system the paper
// describes [THOM78]. An AddressOrdered mode, which keeps free blocks in a
// bitmap and always takes the lowest, is provided for ablations.
package fixed

import (
	"fmt"

	"rofs/internal/alloc"
	"rofs/internal/container/bitset"
)

// Order selects the free-list discipline.
type Order int

const (
	// LIFO reuses the most recently freed blocks first (the V7 behaviour;
	// default).
	LIFO Order = iota
	// AddressOrdered always allocates the lowest-addressed free block,
	// which preserves considerably more contiguity as the system ages.
	AddressOrdered
)

// Config parameterizes the policy. Sizes are in disk units.
type Config struct {
	TotalUnits int64
	BlockUnits int64 // e.g. 4 or 16 with 1K units
	Order      Order
}

// Policy is a fixed-block allocator. Create with New.
type Policy struct {
	cfg     Config
	nBlocks int64
	// LIFO mode: a stack of free block indices. Address mode: a bitmap
	// whose member b is free block b.
	stack  []int64
	sorted *bitset.Set
	free   int64 // free blocks
	stats  alloc.OpStats
	// grownBlocks and grown are Grow's reusable scratch: the blocks one
	// call takes, and their extents folded with AppendExtent. Grow
	// commits from them, rolls back from them and returns grown.
	grownBlocks []int64
	grown       []alloc.Extent
	// files, blocks and extents hold the file handles and their lists'
	// first backing arrays.
	files   alloc.Slab[file]
	blocks  alloc.Slab[int64]
	extents alloc.Slab[alloc.Extent]
}

// OpStats implements alloc.StatsReporter. Fixed blocks never coalesce.
func (p *Policy) OpStats() alloc.OpStats { return p.stats }

// New builds a policy; space that does not divide evenly into blocks is
// unusable, as in real fixed-block systems.
func New(cfg Config) (*Policy, error) {
	if cfg.TotalUnits <= 0 {
		return nil, fmt.Errorf("fixed: TotalUnits %d must be positive", cfg.TotalUnits)
	}
	if cfg.BlockUnits <= 0 {
		return nil, fmt.Errorf("fixed: BlockUnits %d must be positive", cfg.BlockUnits)
	}
	p := &Policy{cfg: cfg, nBlocks: cfg.TotalUnits / cfg.BlockUnits}
	if p.nBlocks == 0 {
		return nil, fmt.Errorf("fixed: no space for even one %d-unit block", cfg.BlockUnits)
	}
	p.free = p.nBlocks
	if cfg.Order == AddressOrdered {
		p.sorted = bitset.New(p.nBlocks)
		for b := int64(0); b < p.nBlocks; b++ {
			p.sorted.Add(b)
		}
	} else {
		// Push in reverse so a fresh system pops ascending addresses.
		p.stack = make([]int64, 0, p.nBlocks)
		for b := p.nBlocks - 1; b >= 0; b-- {
			p.stack = append(p.stack, b)
		}
	}
	return p, nil
}

// Name implements alloc.Policy.
func (p *Policy) Name() string {
	return fmt.Sprintf("fixed(%du)", p.cfg.BlockUnits)
}

// TotalUnits implements alloc.Policy. Only whole blocks are usable.
func (p *Policy) TotalUnits() int64 { return p.nBlocks * p.cfg.BlockUnits }

// FreeUnits implements alloc.Policy.
func (p *Policy) FreeUnits() int64 { return p.free * p.cfg.BlockUnits }

// FreeSpaceStats implements alloc.FreeSpaceReporter: fixed blocks never
// coalesce, so every free block is its own fragment and the largest free
// piece is always one block (or zero when the disk is full).
func (p *Policy) FreeSpaceStats() alloc.FreeSpaceStats {
	st := alloc.FreeSpaceStats{Fragments: p.free}
	if p.free > 0 {
		st.LargestUnits = p.cfg.BlockUnits
	}
	return st
}

func (p *Policy) allocBlock() (int64, error) {
	if p.free == 0 {
		return 0, alloc.ErrNoSpace
	}
	var b int64
	if p.cfg.Order == AddressOrdered {
		b, _ = p.sorted.Next(0)
		p.sorted.Remove(b)
	} else {
		b = p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
	}
	p.free--
	p.stats.Allocs++
	return b, nil
}

// freeBlock returns block b. In AddressOrdered mode freeing a block that
// is already free is a double free and panics; the LIFO stack cannot tell.
func (p *Policy) freeBlock(b int64) {
	if p.cfg.Order == AddressOrdered {
		if !p.sorted.Add(b) {
			panic(fmt.Sprintf("%s: free of already-free block at %d (block %d)",
				p.Name(), b*p.cfg.BlockUnits, b))
		}
	} else {
		p.stack = append(p.stack, b)
	}
	p.free++
	p.stats.Frees++
}

// NewFile implements alloc.Policy; the block size is global, so the size
// hint is ignored.
func (p *Policy) NewFile(int64) alloc.File {
	f := p.files.New()
	f.p = p
	return f
}

type file struct {
	p         *Policy
	blocks    []int64 // block indices in logical order
	extents   []alloc.Extent
	allocated int64
}

func (f *file) Extents() []alloc.Extent { return f.extents }

func (f *file) AllocatedUnits() int64 { return f.allocated }

// DescriptorCount is how many layout descriptors the file's metadata
// holds, for fs.MetaStats: fixed-block files need one pointer per block —
// the metadata burden [STON81] criticizes.
func (f *file) DescriptorCount() int { return len(f.blocks) }

// Grow implements alloc.File.
func (f *file) Grow(min int64) ([]alloc.Extent, error) {
	if min <= 0 {
		return nil, nil
	}
	p := f.p
	bu := p.cfg.BlockUnits
	need := (min + bu - 1) / bu
	blocks := p.grownBlocks[:0]
	for int64(len(blocks)) < need {
		b, err := p.allocBlock()
		if err != nil {
			for _, rb := range blocks {
				p.freeBlock(rb)
			}
			p.grownBlocks = blocks
			return nil, err
		}
		blocks = append(blocks, b)
	}
	p.grownBlocks = blocks
	f.blocks = append(p.blocks.Grow(f.blocks, len(blocks)), blocks...)
	f.allocated += need * bu
	added := p.grown[:0]
	for _, b := range blocks {
		added = alloc.AppendExtent(added, alloc.Extent{Start: b * bu, Len: bu})
	}
	p.grown = added
	f.extents = alloc.AppendExtents(&p.extents, f.extents, added)
	return added, nil
}

// Rearm implements alloc.File: an empty fixed-block file is a new one.
func (f *file) Rearm(int64) { f.TruncateTo(0) }

// TruncateTo implements alloc.File: whole blocks beyond the target are
// freed.
func (f *file) TruncateTo(target int64) {
	if target < 0 {
		target = 0
	}
	bu := f.p.cfg.BlockUnits
	keep := (target + bu - 1) / bu
	for int64(len(f.blocks)) > keep {
		b := f.blocks[len(f.blocks)-1]
		f.blocks = f.blocks[:len(f.blocks)-1]
		f.p.freeBlock(b)
		f.allocated -= bu
		f.extents = alloc.TrimExtent(f.extents, bu)
	}
}
