package rbuddy

import (
	"slices"
	"testing"
	"testing/quick"

	"rofs/internal/alloc"
	"rofs/internal/units"
)

// TestQuickRBuddyInvariants drives the restricted buddy allocator with
// arbitrary grow/truncate scripts via testing/quick and checks, after
// every operation: space conservation, extent validity, that every block
// is one of the configured sizes, and that blocks are size-aligned — for
// both a clustered grow-factor-1 configuration and an unclustered
// fractional one.
func TestQuickRBuddyInvariants(t *testing.T) {
	const total = 1 << 12
	configs := []Config{
		{TotalUnits: total, SizesUnits: []int64{1, 8, 64}, GrowFactor: 1, Clustered: true, RegionUnits: 512},
		{TotalUnits: total, SizesUnits: []int64{1, 8, 64, 512}, GrowFactor: 1.5},
	}
	for _, cfg := range configs {
		prop := func(script []uint16) bool {
			p, err := New(cfg)
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
						size := p.sizes[b.class]
						if !units.IsAligned(b.addr, size) {
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
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}

// TestQuickGrowPolicyMonotone: under arbitrary unit counts, the grow
// policy's size class never moves down and never skips past the
// configured ladder.
func TestQuickGrowPolicyMonotone(t *testing.T) {
	sizes := []int64{1, 8, 64, 512}
	prop := func(raw [4]uint16, level uint8) bool {
		uac := make([]int64, len(sizes))
		for i := range uac {
			uac[i] = int64(raw[i])
		}
		start := int(level) % len(sizes)
		next := nextClass(start, uac, sizes, 1)
		return next >= start && next < len(sizes)
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
		out = alloc.AppendExtent(out, alloc.Extent{Start: b.addr, Len: f.p.sizes[b.class]})
	}
	return out
}

// TestQuickExtentsMatchFold drives random grow, truncate and
// truncate-to-zero streams over four files and checks after every step
// that the file's Extents() equals a from-scratch AppendExtent fold over
// its blocks, sums to its allocation, and validates.
func TestQuickExtentsMatchFold(t *testing.T) {
	const total = 1 << 12
	for _, clustered := range []bool{true, false} {
		prop := func(script []uint16) bool {
			p, err := New(Config{TotalUnits: total, SizesUnits: []int64{1, 8, 64, 512}, GrowFactor: 1.5,
				Clustered: clustered, RegionUnits: 1024})
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
			t.Errorf("clustered=%v: %v", clustered, err)
		}
	}
}
