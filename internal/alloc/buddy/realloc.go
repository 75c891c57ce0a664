package buddy

import (
	"rofs/internal/alloc"
	"rofs/internal/units"
)

// This file implements Koch's background reallocator [KOCH87] — the piece
// the paper deliberately simulates *without* ("we consider only the
// allocation and deallocation algorithm", §4.1). In DTSS it ran nightly,
// shuffling extents so most files sat in at most three extents with under
// 4% internal fragmentation. The repository ships it as an extension so
// the ablation harness can quantify exactly what the paper left out.

// DefaultCompactExtents is Koch's target: "most files are allocated in 3
// extents".
const DefaultCompactExtents = 3

// Compact reallocates the file to a tight layout: at most maxExtents
// power-of-two blocks covering used units (rounded up as little as the
// piece limit allows). It returns false — leaving the file exactly as it
// was — when the free space cannot provide the target blocks.
//
// used must not exceed the current allocation. maxExtents < 1 selects
// DefaultCompactExtents.
func (f *file) Compact(used int64, maxExtents int) bool {
	if maxExtents < 1 {
		maxExtents = DefaultCompactExtents
	}
	if used < 0 {
		used = 0
	}
	if used > f.allocated {
		used = f.allocated
	}
	if used == 0 {
		f.TruncateTo(0)
		return true
	}
	target := compactSizes(used, f.p.cfg.MinExtentUnits, f.p.cfg.MaxExtentUnits, maxExtents)
	if sameSizes(target, f.blocks) {
		return true // already tight
	}

	// Free everything, then allocate the target layout. If that fails the
	// original multiset of block sizes is re-allocated — always possible,
	// since the just-freed space contains a free block of every original
	// size.
	old := make([]block, len(f.blocks))
	copy(old, f.blocks)
	for _, b := range old {
		f.p.freeBlock(b.addr, b.order)
	}
	newBlocks, ok := f.p.allocSet(target)
	if !ok {
		restored, rok := f.p.allocSet(sizesOf(old))
		if !rok {
			panic("buddy: reallocation rollback failed")
		}
		f.setBlocks(restored)
		return false
	}
	f.setBlocks(newBlocks)
	return true
}

// allocSet allocates one block per size (descending order given),
// returning ok=false — with everything released — if any fails.
func (p *Policy) allocSet(sizes []int64) ([]block, bool) {
	var got []block
	for _, size := range sizes {
		addr, err := p.allocBlock(units.Log2(size))
		if err != nil {
			for _, b := range got {
				p.freeBlock(b.addr, b.order)
			}
			return nil, false
		}
		got = append(got, block{addr, units.Log2(size)})
	}
	return got, true
}

func (f *file) setBlocks(bs []block) {
	f.blocks = bs
	f.allocated = 0
	f.extents = f.extents[:0]
	for _, b := range bs {
		size := int64(1) << b.order
		f.allocated += size
		f.extents = alloc.AppendExtent(f.extents, alloc.Extent{Start: b.addr, Len: size})
	}
}

func sizesOf(bs []block) []int64 {
	out := make([]int64, len(bs))
	for i, b := range bs {
		out[i] = int64(1) << b.order
	}
	return out
}

func sameSizes(sizes []int64, bs []block) bool {
	if len(sizes) != len(bs) {
		return false
	}
	// Both are descending by construction only for fresh compactions;
	// compare as multisets via counting orders (<= 63 distinct).
	var a, b [64]int
	for _, s := range sizes {
		a[units.Log2(s)]++
	}
	for _, blk := range bs {
		b[blk.order]++
	}
	return a == b
}

// compactSizes returns the descending power-of-two block sizes covering
// `used` units with at most maxPieces pieces: the binary decomposition of
// the (min-extent-rounded) size, with the smallest pieces merged upward
// until the piece budget holds. Every size is clamped to [min, max]; if
// the cap forces more than maxPieces pieces (a huge file), maxPieces is
// exceeded rather than the cap.
func compactSizes(used, minExt, maxExt int64, maxPieces int) []int64 {
	need := units.RoundUp(used, minExt)
	var sizes []int64
	// Whole max-extent blocks first.
	for need >= maxExt {
		sizes = append(sizes, maxExt)
		need -= maxExt
	}
	// Binary decomposition of the remainder, descending.
	for need > 0 {
		p := units.PrevPowerOfTwo(need)
		if p < minExt {
			p = minExt
		}
		sizes = append(sizes, p)
		if p >= need {
			break
		}
		need -= p
	}
	// Merge the two smallest pieces (round up) until within budget; whole
	// max-extent blocks cannot merge further.
	for len(sizes) > maxPieces {
		last := len(sizes) - 1
		if sizes[last-1] >= maxExt {
			break
		}
		merged := units.NextPowerOfTwo(sizes[last-1] + sizes[last])
		if merged > maxExt {
			merged = maxExt
		}
		sizes = sizes[:last-1]
		// Re-insert keeping descending order (merged may equal the
		// previous piece).
		i := len(sizes)
		for i > 0 && sizes[i-1] < merged {
			i--
		}
		sizes = append(sizes, 0)
		copy(sizes[i+1:], sizes[i:])
		sizes[i] = merged
	}
	return sizes
}
