package fs

import (
	"cmp"
	"fmt"
	"slices"

	"rofs/internal/alloc"
)

// Check is the simulator's fsck: it cross-validates the file system
// against its allocation policy and reports the first inconsistency —
// overlapping allocations between files, extents outside the volume,
// length exceeding allocation, or the policy's free count disagreeing
// with the sum of file allocations. The experiment harness and the
// failure-injection tests run it after aging runs to catch allocator
// bookkeeping bugs that individual operations would not surface. Files
// are checked in id order, so the file a per-file error names is the
// lowest-numbered bad one.
func (fs *FileSystem) Check() error {
	total := fs.policy.TotalUnits()
	var allocated, used int64
	var n int
	for _, f := range fs.files {
		if f != nil {
			n += len(f.fa.Extents())
		}
	}
	all := make([]alloc.Extent, 0, n)
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
		all = append(all, ext...)
	}
	if used != fs.usedBytes {
		return fmt.Errorf("fs: used-bytes accounting drifted: files sum to %d, counter says %d",
			used, fs.usedBytes)
	}
	if free := fs.policy.FreeUnits(); allocated+free != total {
		return fmt.Errorf("fs: space leak: %d allocated + %d free != %d total",
			allocated, free, total)
	}
	// Cross-file overlap: sort by start and compare neighbours — the
	// O(n²) alloc.Validate is fine per file but not across hundreds of
	// thousands.
	slices.SortFunc(all, func(a, b alloc.Extent) int { return cmp.Compare(a.Start, b.Start) })
	for i := 1; i < len(all); i++ {
		if all[i].Start < all[i-1].End() {
			return fmt.Errorf("fs: files overlap at units [%d,%d)", all[i].Start, all[i-1].End())
		}
	}
	return nil
}
