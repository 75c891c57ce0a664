package fixed

import (
	"slices"
	"testing"
	"testing/quick"

	"rofs/internal/alloc"
)

// foldExtents rebuilds f's merged extent list from scratch — the
// reference the incrementally maintained Extents() must equal.
func foldExtents(f *file) []alloc.Extent {
	var out []alloc.Extent
	for _, b := range f.blocks {
		out = alloc.AppendExtent(out, alloc.Extent{Start: b * f.p.cfg.BlockUnits, Len: f.p.cfg.BlockUnits})
	}
	return out
}

// TestQuickExtentsMatchFold drives random grow, truncate and
// truncate-to-zero streams over four files and checks after every step
// that the file's Extents() equals a from-scratch AppendExtent fold over
// its blocks, sums to its allocation, and validates.
func TestQuickExtentsMatchFold(t *testing.T) {
	const total = 1 << 12
	for _, ord := range []Order{LIFO, AddressOrdered} {
		prop := func(script []uint16) bool {
			p, err := New(Config{TotalUnits: total, BlockUnits: 16, Order: ord})
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
					f.TruncateTo(0)
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
			t.Errorf("order %v: %v", ord, err)
		}
	}
}
