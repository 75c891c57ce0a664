package fs

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"rofs/internal/alloc"
)

// Check is the simulator's fsck: it cross-validates the file system
// against its allocation policy and reports the first inconsistency —
// extents outside the volume, length exceeding allocation, the policy's
// free count disagreeing with the sum of file allocations, or
// overlapping allocations between files. The experiment harness and the
// failure-injection tests run it after aging runs to catch allocator
// bookkeeping bugs that individual operations would not surface.
//
// Files are checked in id order, so the file a per-file error names is
// the lowest-numbered bad one. Per-file errors, used-bytes drift, a space
// leak and an overlap take precedence in that order; see overlap for how
// an overlap is found and which one is reported.
func (fs *FileSystem) Check() error {
	total := fs.policy.TotalUnits()
	var allocated, used int64
	var extents int64
	for _, f := range fs.files {
		if f == nil {
			continue
		}
		ext := f.fa.Extents()
		if err := alloc.Validate(ext, total); err != nil {
			return fmt.Errorf("fs: file %d: %w", f.id, err)
		}
		if got := alloc.Sum(ext); got != f.fa.AllocatedUnits() {
			return fmt.Errorf("fs: file %d: extents sum to %d units but AllocatedUnits is %d",
				f.id, got, f.fa.AllocatedUnits())
		}
		if f.length > f.AllocatedBytes() {
			return fmt.Errorf("fs: file %d: length %d exceeds allocation %d",
				f.id, f.length, f.AllocatedBytes())
		}
		if f.length < 0 {
			return fmt.Errorf("fs: file %d: negative length %d", f.id, f.length)
		}
		allocated += f.fa.AllocatedUnits()
		used += f.length
		extents += int64(len(ext))
	}
	if used != fs.usedBytes {
		return fmt.Errorf("fs: used-bytes accounting drifted: files sum to %d, counter says %d",
			used, fs.usedBytes)
	}
	if free := fs.policy.FreeUnits(); allocated+free != total {
		return fmt.Errorf("fs: space leak: %d allocated + %d free != %d total",
			allocated, free, total)
	}
	return fs.overlap(total, extents)
}

// sparseWords is the number of ownership-bitmap words per extent below
// which overlap sorts the extents first. On a full-scale volume (2.76M
// units, 43K words) holding a few dozen extents, as after a throughput
// test's initialization, fsck takes about thirty times longer with a
// freshly allocated bitmap than with the sort; the tens of thousands of
// extents an allocation test leaves sort many times slower than they
// mark.
const sparseWords = 8

// overlap reports where files first share a unit. Each file, in id order,
// marks its extents' units in an ownership bitmap of one bit per unit of
// the volume, a 64-bit word at a time; the first unit a file finds already
// marked is held by a lower-numbered file too. The error names that unit
// and the end of the run of such units in the extent being marked.
//
// The bitmap costs time in proportion to the volume: when the files hold
// fewer than one extent per sparseWords words of it, a sort of all extents
// by start first shows whether any two overlap, and the bitmap is built
// only when some do, so the report is the same either way.
func (fs *FileSystem) overlap(total, extents int64) error {
	words := (total + 63) / 64
	if extents*sparseWords < words && !fs.anyOverlap(extents) {
		return nil
	}
	owned := make([]uint64, words)
	for _, f := range fs.files {
		if f == nil {
			continue
		}
		if err := markOwned(owned, f.fa.Extents()); err != nil {
			return err
		}
	}
	return nil
}

// anyOverlap reports whether any two files' extents overlap: sorted by
// start, an extent that begins before its predecessor ends overlaps it
// (each file's own extents are disjoint, which Check validated).
func (fs *FileSystem) anyOverlap(extents int64) bool {
	all := make([]alloc.Extent, 0, extents)
	for _, f := range fs.files {
		if f != nil {
			all = append(all, f.fa.Extents()...)
		}
	}
	slices.SortFunc(all, func(a, b alloc.Extent) int { return cmp.Compare(a.Start, b.Start) })
	for i := 1; i < len(all); i++ {
		if all[i].Start < all[i-1].End() {
			return true
		}
	}
	return false
}

// markOwned sets the bits of ext's units in owned, a 64-bit word at a
// time. At the first unit already set it stops and reports the run of set
// units that starts there, up to the end of the extent being marked.
func markOwned(owned []uint64, ext []alloc.Extent) error {
	for _, e := range ext {
		lo, hi := e.Start, e.End()
		for w := lo >> 6; w <= (hi-1)>>6; w++ {
			m := wordMask(w, lo, hi)
			if hit := owned[w] & m; hit != 0 {
				at := w<<6 + int64(bits.TrailingZeros64(hit))
				return fmt.Errorf("fs: files overlap at units [%d,%d)", at, ownedUntil(owned, at, hi))
			}
			owned[w] |= m
		}
	}
	return nil
}

// ownedUntil returns the first unit in [at, hi) whose bit is clear, or hi.
func ownedUntil(owned []uint64, at, hi int64) int64 {
	for w := at >> 6; w <= (hi-1)>>6; w++ {
		if gap := ^owned[w] & wordMask(w, at, hi); gap != 0 {
			return w<<6 + int64(bits.TrailingZeros64(gap))
		}
	}
	return hi
}

// wordMask returns the bits of word w that stand for units in [lo, hi).
func wordMask(w, lo, hi int64) uint64 {
	m := ^uint64(0)
	if skip := lo - w<<6; skip > 0 {
		m <<= uint(skip)
	}
	if keep := hi - w<<6; keep < 64 {
		m &^= ^uint64(0) << uint(keep)
	}
	return m
}
