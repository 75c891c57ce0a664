package buddy

import (
	"slices"
	"testing"
	"testing/quick"

	"rofs/internal/alloc"
	"rofs/internal/units"
)

// TestQuickBuddyInvariants drives the buddy allocator with arbitrary
// grow/truncate scripts via testing/quick and checks, after every
// operation: space conservation, extent validity, power-of-two block
// sizes, and size-alignment of every block.
func TestQuickBuddyInvariants(t *testing.T) {
	const total = 1 << 12
	prop := func(script []uint16) bool {
		p, err := New(Config{TotalUnits: total})
		if err != nil {
			return false
		}
		var files []*file
		for _, op := range script {
			arg := int64(op&0x3FF) + 1
			switch {
			case op&0x8000 == 0 || len(files) == 0: // grow (new or existing)
				var f *file
				if len(files) > 0 && op&0x4000 != 0 {
					f = files[int(op>>8)%len(files)]
				} else {
					f = p.NewFile(0).(*file)
					files = append(files, f)
				}
				if _, err := f.Grow(arg); err != nil && err != alloc.ErrNoSpace {
					return false
				}
			default: // truncate
				f := files[int(op>>8)%len(files)]
				f.TruncateTo(arg % (f.AllocatedUnits() + 1))
			}
			var used int64
			for _, f := range files {
				used += f.AllocatedUnits()
				for _, b := range f.blocks {
					size := int64(1) << b.order
					if !units.IsPowerOfTwo(size) || !units.IsAligned(b.addr, size) {
						return false
					}
				}
			}
			if used+p.FreeUnits() != total {
				return false
			}
		}
		var all []alloc.Extent
		for _, f := range files {
			all = append(all, f.Extents()...)
		}
		return alloc.Validate(all, total) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickCompactPreservesCoverage: for arbitrary (used, pieces) inputs,
// compactSizes always covers the request, stays within the cap where the
// budget allows, and returns descending power-of-two sizes.
func TestQuickCompactPreservesCoverage(t *testing.T) {
	prop := func(rawUsed uint32, rawPieces uint8) bool {
		used := int64(rawUsed%100000) + 1
		pieces := int(rawPieces%5) + 1
		sizes := compactSizes(used, 1, 1024, pieces)
		var sum int64
		prev := int64(1 << 62)
		for _, s := range sizes {
			if !units.IsPowerOfTwo(s) || s > 1024 || s > prev {
				return false
			}
			prev = s
			sum += s
		}
		if sum < used {
			return false
		}
		// Piece budget holds unless the cap forces more whole max-blocks.
		if len(sizes) > pieces {
			whole := 0
			for _, s := range sizes {
				if s == 1024 {
					whole++
				}
			}
			if whole < len(sizes)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// foldExtents rebuilds f's merged extent list from scratch — the
// reference the incrementally maintained Extents() must equal.
func foldExtents(f *file) []alloc.Extent {
	var out []alloc.Extent
	for _, b := range f.blocks {
		out = alloc.AppendExtent(out, alloc.Extent{Start: b.addr, Len: int64(1) << b.order})
	}
	return out
}

// TestQuickExtentsMatchFold drives random grow, truncate and
// truncate-to-zero (or Koch compaction) streams over four files and checks
// after every step that the file's Extents() equals a from-scratch
// AppendExtent fold over its blocks, sums to its allocation, and validates.
func TestQuickExtentsMatchFold(t *testing.T) {
	const total = 1 << 12
	prop := func(script []uint16) bool {
		p, err := New(Config{TotalUnits: total})
		if err != nil {
			return false
		}
		files := make([]*file, 4)
		for i := range files {
			files[i] = p.NewFile(0).(*file)
		}
		for _, op := range script {
			f := files[int(op>>10)%len(files)]
			arg := int64(op&0x3FF) + 1
			switch op >> 14 {
			case 0, 1:
				if _, err := f.Grow(arg); err != nil && err != alloc.ErrNoSpace {
					return false
				}
			case 2:
				f.TruncateTo(arg % (f.AllocatedUnits() + 1))
			default:
				if op&0x200 != 0 {
					f.Compact(f.AllocatedUnits()/2, 0)
				} else {
					f.TruncateTo(0)
				}
			}
			got := f.Extents()
			if !slices.Equal(got, foldExtents(f)) || alloc.Sum(got) != f.AllocatedUnits() ||
				alloc.Validate(got, total) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
