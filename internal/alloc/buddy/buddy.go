// Package buddy implements the binary buddy allocation policy of §4.1,
// after Koch's DTSS file system [KOCH87]: a file is a sequence of extents
// whose sizes are powers of two, and "each time a new extent is required,
// the extent size is chosen to double the current size of the file". The
// paper simulates only the allocation and deallocation algorithm — not
// Koch's nightly reallocator — and so does the policy; Compact
// (realloc.go) adds the reallocator as an ablation.
//
// Free space is the classic binary buddy structure: one free-block bitmap
// per order, splitting larger blocks on demand and coalescing buddy pairs
// on free. A request for an extent of size s fails outright when no free block of
// size >= s exists — the policy never composes an extent from smaller
// blocks, which is exactly why the paper observes substantial *external*
// fragmentation for this policy (Table 3): the disk can be 13% free and
// still unable to produce the next doubling extent.
package buddy

import (
	"fmt"

	"rofs/internal/alloc"
	"rofs/internal/container/bitset"
	"rofs/internal/units"
)

// Config parameterizes the policy. All sizes are in disk units.
type Config struct {
	// TotalUnits is the size of the managed space.
	TotalUnits int64
	// MinExtentUnits is the first extent allocated to a new file (a power
	// of two, >= 1). Defaults to 1.
	MinExtentUnits int64
	// MaxExtentUnits caps the doubling (a power of two). The paper notes
	// large files end up in 64M blocks (§5); with 1K units that is 65536.
	// Defaults to 64K units (64M).
	MaxExtentUnits int64
}

func (c *Config) setDefaults() error {
	if c.TotalUnits <= 0 {
		return fmt.Errorf("buddy: TotalUnits %d must be positive", c.TotalUnits)
	}
	if c.MinExtentUnits == 0 {
		c.MinExtentUnits = 1
	}
	if c.MaxExtentUnits == 0 {
		c.MaxExtentUnits = 64 * 1024
	}
	if !units.IsPowerOfTwo(c.MinExtentUnits) || !units.IsPowerOfTwo(c.MaxExtentUnits) {
		return fmt.Errorf("buddy: extent bounds %d/%d must be powers of two",
			c.MinExtentUnits, c.MaxExtentUnits)
	}
	if c.MinExtentUnits > c.MaxExtentUnits {
		return fmt.Errorf("buddy: MinExtentUnits %d > MaxExtentUnits %d",
			c.MinExtentUnits, c.MaxExtentUnits)
	}
	if c.MaxExtentUnits > c.TotalUnits {
		c.MaxExtentUnits = units.PrevPowerOfTwo(c.TotalUnits)
	}
	return nil
}

// Policy is a binary buddy allocator. Create with New.
type Policy struct {
	cfg      Config
	maxOrder int
	// orders[o] is the free map of blocks of size 1<<o: member k is the
	// free block at k<<o. Allocation takes the lowest member, so placement
	// is deterministic (lowest address first).
	orders []*bitset.Set
	free   int64
	stats  alloc.OpStats
	// grown is Grow's reusable scratch, one extent per block the call
	// takes; Grow commits from it, rolls back from it and returns it.
	grown []alloc.Extent
	// files, blocks and extents hold the file handles and their lists'
	// first backing arrays.
	files   alloc.Slab[file]
	blocks  alloc.Slab[block]
	extents alloc.Slab[alloc.Extent]
}

// OpStats implements alloc.StatsReporter.
func (p *Policy) OpStats() alloc.OpStats { return p.stats }

// New builds a policy over a space of cfg.TotalUnits units. Space that
// cannot form aligned power-of-two blocks is still usable: the initial
// free set decomposes the space greedily into maximal aligned blocks.
func New(cfg Config) (*Policy, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	p := &Policy{cfg: cfg, maxOrder: units.Log2(units.NextPowerOfTwo(cfg.TotalUnits))}
	p.orders = make([]*bitset.Set, p.maxOrder+1)
	for o := range p.orders {
		p.orders[o] = bitset.New(cfg.TotalUnits >> o)
	}
	for addr := int64(0); addr < cfg.TotalUnits; {
		size := units.PrevPowerOfTwo(cfg.TotalUnits - addr)
		if addr != 0 {
			if lowBit := addr & -addr; lowBit < size {
				size = lowBit
			}
		}
		o := units.Log2(size)
		p.orders[o].Add(addr >> o)
		p.free += size
		addr += size
	}
	return p, nil
}

// Name implements alloc.Policy.
func (p *Policy) Name() string { return "buddy" }

// TotalUnits implements alloc.Policy.
func (p *Policy) TotalUnits() int64 { return p.cfg.TotalUnits }

// FreeUnits implements alloc.Policy.
func (p *Policy) FreeUnits() int64 { return p.free }

// FreeSpaceStats implements alloc.FreeSpaceReporter: free buddy blocks are
// the fragments (buddies already coalesce on free), the largest being the
// biggest non-empty order.
func (p *Policy) FreeSpaceStats() alloc.FreeSpaceStats {
	var st alloc.FreeSpaceStats
	for o, set := range p.orders {
		if n := set.Len(); n > 0 {
			st.Fragments += int64(n)
			st.LargestUnits = int64(1) << o
		}
	}
	return st
}

// allocBlock takes the lowest-addressed free block of exactly 1<<order
// units, splitting a larger block if necessary.
func (p *Policy) allocBlock(order int) (int64, error) {
	from := order
	for from <= p.maxOrder && p.orders[from].Len() == 0 {
		from++
	}
	if from > p.maxOrder {
		return 0, alloc.ErrNoSpace
	}
	k, _ := p.orders[from].Next(0)
	p.orders[from].Remove(k)
	addr := k << from
	// Split down, freeing the upper half at each level.
	for o := from - 1; o >= order; o-- {
		p.orders[o].Add(addr>>o + 1)
	}
	p.free -= int64(1) << order
	p.stats.Allocs++
	return addr, nil
}

// freeBlock returns a block of 1<<order units at addr, coalescing with its
// buddy as long as the buddy is free. Freeing a block that is still free
// at its own order is a double free and panics; one already merged into a
// free parent is not detected.
func (p *Policy) freeBlock(addr int64, order int) {
	p.free += int64(1) << order
	p.stats.Frees++
	for order < p.maxOrder {
		buddy := addr ^ int64(1)<<order
		if !p.orders[order].Remove(buddy >> order) {
			break
		}
		if buddy < addr {
			addr = buddy
		}
		order++
		p.stats.Coalesces++
	}
	if !p.orders[order].Add(addr >> order) {
		panic(fmt.Sprintf("buddy: free of already-free block at %d (order %d)", addr, order))
	}
}

// NewFile implements alloc.Policy. The buddy policy ignores the size hint:
// extent sizes are dictated purely by the doubling rule.
func (p *Policy) NewFile(int64) alloc.File {
	f := p.files.New()
	f.p = p
	return f
}

// file carries a buddy file's allocation: an extent list whose sizes are
// powers of two summing (until the cap kicks in) to a power of two.
type file struct {
	p         *Policy
	extents   []alloc.Extent
	blocks    []block // physical blocks, in allocation order
	allocated int64
}

type block struct {
	addr  int64
	order int
}

func (f *file) Extents() []alloc.Extent { return f.extents }

func (f *file) AllocatedUnits() int64 { return f.allocated }

// DescriptorCount is how many layout descriptors the file's metadata
// holds, for fs.MetaStats: one per extent; the doubling rule keeps this
// logarithmic in the file size.
func (f *file) DescriptorCount() int { return len(f.blocks) }

// nextExtentUnits returns the size of the next extent under the doubling
// rule for a file with the given current allocation.
func (f *file) nextExtentUnits(allocated int64) int64 {
	size := f.p.cfg.MinExtentUnits
	if allocated > size {
		size = units.NextPowerOfTwo(allocated)
	}
	if size > f.p.cfg.MaxExtentUnits {
		size = f.p.cfg.MaxExtentUnits
	}
	return size
}

// Grow implements alloc.File: it allocates doubling extents until at least
// min new units have been added. Nothing is committed until every extent
// has been acquired, so a failure leaves the allocation unchanged. The
// extents it returns are one per block, unmerged.
func (f *file) Grow(min int64) ([]alloc.Extent, error) {
	if min <= 0 {
		return nil, nil
	}
	p := f.p
	added := p.grown[:0]
	var got int64
	for got < min {
		size := f.nextExtentUnits(f.allocated + got)
		addr, err := p.allocBlock(units.Log2(size))
		if err != nil {
			for _, e := range added {
				p.freeBlock(e.Start, units.Log2(e.Len))
			}
			p.grown = added
			return nil, err
		}
		added = append(added, alloc.Extent{Start: addr, Len: size})
		got += size
	}
	p.grown = added
	f.blocks = p.blocks.Grow(f.blocks, len(added))
	for _, e := range added {
		f.blocks = append(f.blocks, block{e.Start, units.Log2(e.Len)})
	}
	f.extents = alloc.AppendExtents(&p.extents, f.extents, added)
	f.allocated += got
	return added, nil
}

// Rearm implements alloc.File: an empty buddy file is a new one.
func (f *file) Rearm(int64) { f.TruncateTo(0) }

// TruncateTo implements alloc.File: whole blocks wholly beyond the target
// are freed (buddy blocks are atomic — a partially used block stays).
func (f *file) TruncateTo(target int64) {
	if target < 0 {
		target = 0
	}
	for len(f.blocks) > 0 {
		last := f.blocks[len(f.blocks)-1]
		size := int64(1) << last.order
		if f.allocated-size < target {
			break
		}
		f.p.freeBlock(last.addr, last.order)
		f.blocks = f.blocks[:len(f.blocks)-1]
		f.allocated -= size
		f.extents = alloc.TrimExtent(f.extents, size)
	}
}
