// Package alloc defines the interface every allocation policy implements
// and the types shared between them. The four policies of the paper live
// in subpackages:
//
//   - buddy:  binary buddy allocation, extents double the file (§4.1)
//   - rbuddy: the restricted buddy system (§4.2)
//   - extent: extent-based first-fit / best-fit allocation (§4.3)
//   - fixed:  the fixed-block baseline of the comparison section (§5)
//
// All addresses and lengths are in *disk units* — the minimum transfer
// granule of the disk system (1K in the paper's configuration). The file
// system layer (internal/fs) converts between bytes and units and issues
// the actual disk traffic; policies only decide placement.
package alloc

import (
	"errors"
	"fmt"
)

// ErrNoSpace is returned when a policy cannot satisfy an allocation
// request. Policies are strict: a request either succeeds in full or the
// allocation state is left unchanged. The paper's harness reacts per test
// type — an allocation test ends at the first failure (§3), the throughput
// tests log a disk-full condition and reschedule the event (§2.2).
var ErrNoSpace = errors.New("alloc: no space")

// Extent is a contiguous allocation [Start, Start+Len) in disk units.
type Extent struct {
	Start, Len int64
}

// End returns the first unit past the extent.
func (e Extent) End() int64 { return e.Start + e.Len }

// String implements fmt.Stringer.
func (e Extent) String() string { return fmt.Sprintf("[%d,+%d)", e.Start, e.Len) }

// Policy is a disk allocation policy over a linear space of disk units.
// Implementations are single-threaded, like the simulator that drives
// them.
type Policy interface {
	// Name identifies the policy in reports, e.g. "rbuddy(5,g1,clustered)".
	Name() string
	// TotalUnits returns the size of the managed space.
	TotalUnits() int64
	// FreeUnits returns the unallocated space. External fragmentation at
	// first failure is FreeUnits()/TotalUnits() (§3).
	FreeUnits() int64
	// NewFile creates an empty per-file allocation handle. sizeHint is the
	// file type's AllocationSize parameter in units (Table 2), which the
	// extent policy uses to choose the file's extent-size range; other
	// policies may ignore it. Creating a file may change the policy too:
	// a clustered restricted buddy places the file's descriptor in the
	// region after the last satisfied request and counts that as the
	// last satisfied request. File.Rearm makes exactly the same change.
	// Handles come from a slab the policy owns (see Slab).
	NewFile(sizeHint int64) File
}

// File is the per-file allocation state a policy maintains: the ordered
// extent list plus whatever growth bookkeeping the policy needs (current
// block-size class, the file's extent size, ...).
type File interface {
	// Extents returns the file's allocation in logical order. The returned
	// slice is owned by the File and must not be mutated or retained across
	// further calls.
	Extents() []Extent
	// AllocatedUnits returns the total allocation.
	AllocatedUnits() int64
	// Grow extends the allocation by at least min units, returning the
	// extents added (in logical order): folding them into the previous
	// Extents() with AppendExtent gives the new Extents(). On ErrNoSpace
	// the allocation is unchanged. The returned slice is the policy's
	// reusable scratch, shared by all of its files: it must not be
	// mutated, and it is valid only until the next Grow on any file of
	// the same policy.
	Grow(min int64) ([]Extent, error)
	// TruncateTo shrinks the allocation to the smallest policy-expressible
	// size >= units (policies that allocate whole blocks cannot split
	// them). TruncateTo(0) frees everything.
	TruncateTo(units int64)
	// Rearm frees everything, as TruncateTo(0) does, and then leaves the
	// handle, and the policy, exactly as NewFile(sizeHint) would: the
	// extent policy chooses the file's range from sizeHint again, and a
	// clustered restricted buddy places a new descriptor. The handle and
	// its lists' backing arrays are reused, so recreating a file
	// (fs.File.Recreate) needs no new handle and no new lists.
	Rearm(sizeHint int64)
}

// OpStats counts a policy's allocation operations since construction.
// Allocs and Frees count whole allocation primitives (blocks or extents)
// handed out and returned; Coalesces counts free-list or buddy merges —
// the policy's ongoing fight against external fragmentation, surfaced by
// the metrics registry.
type OpStats struct {
	Allocs, Frees, Coalesces int64
}

// StatsReporter is the optional interface policies implement to expose
// operation counts to the metrics registry.
type StatsReporter interface {
	OpStats() OpStats
}

// FreeSpaceStats describes the shape of a policy's free space — the decay
// the aging experiment tracks over simulated days of churn (Sears & van
// Ingen's free-space-fragmentation metric). Fragments counts the discrete
// free pieces the policy could hand out without coalescing beyond what its
// structures already do (free-list runs, free blocks per order/class);
// LargestUnits is the biggest single piece. A policy whose FreeUnits stays
// flat while Fragments climbs and LargestUnits shrinks is aging badly.
type FreeSpaceStats struct {
	Fragments    int64
	LargestUnits int64
}

// FreeSpaceReporter is the optional interface policies implement to expose
// free-space shape to the aging experiment and the metrics registry.
type FreeSpaceReporter interface {
	FreeSpaceStats() FreeSpaceStats
}

// AppendExtent appends e to list, merging it into the last entry when the
// two are physically adjacent — shared by every policy so contiguous
// allocations present as single long extents to the I/O path.
func AppendExtent(list []Extent, e Extent) []Extent {
	if n := len(list); n > 0 && list[n-1].End() == e.Start {
		list[n-1].Len += e.Len
		return list
	}
	return append(list, e)
}

// AppendExtents folds every extent of added into list with AppendExtent,
// growing list at most once: a policy's Grow commits the extents it took
// this way, so a file's extent list costs one allocation per Grow at most.
// A list with no backing array yet takes exactly the room it needs from
// slab, the policy's.
func AppendExtents(slab *Slab[Extent], list, added []Extent) []Extent {
	n, end := 0, int64(-1)
	if len(list) > 0 {
		end = list[len(list)-1].End()
	}
	for _, e := range added {
		if e.Start != end {
			n++
		}
		end = e.End()
	}
	list = slab.Grow(list, n)
	for _, e := range added {
		list = AppendExtent(list, e)
	}
	return list
}

// TrimExtent is the inverse of AppendExtent: it removes the last n units
// of list, shortening the last entry and dropping it when it empties.
// Policies free whole trailing granules, each of which AppendExtent folded
// into the last entry, so trimming them keeps the list equal to a
// from-scratch fold over what remains.
func TrimExtent(list []Extent, n int64) []Extent {
	last := len(list) - 1
	if list[last].Len -= n; list[last].Len == 0 {
		return list[:last]
	}
	return list
}

// Validate checks an extent list for the invariants every policy must
// maintain: positive lengths, units within [0, total), and no overlap
// between extents (logical order need not be physical order). It is used
// by tests and the fs layer's paranoia checks.
func Validate(list []Extent, total int64) error {
	for i, e := range list {
		if e.Len <= 0 {
			return fmt.Errorf("alloc: extent %d has non-positive length %d", i, e.Len)
		}
		if e.Start < 0 || e.End() > total {
			return fmt.Errorf("alloc: extent %d %v outside [0,%d)", i, e, total)
		}
	}
	// O(n²) is fine at validation call sites (tests, assertions).
	for i, a := range list {
		for j := i + 1; j < len(list); j++ {
			if b := list[j]; a.Start < b.End() && b.Start < a.End() {
				return fmt.Errorf("alloc: extents %d and %d overlap", i, j)
			}
		}
	}
	return nil
}

// Sum returns the total length of an extent list.
func Sum(list []Extent) int64 {
	var n int64
	for _, e := range list {
		n += e.Len
	}
	return n
}
