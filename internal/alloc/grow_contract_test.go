package alloc_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/alloc/buddy"
	"rofs/internal/alloc/extent"
	"rofs/internal/alloc/fixed"
	"rofs/internal/alloc/rbuddy"
	"rofs/internal/sim"
)

// TestGrowContract holds every policy to alloc.File.Grow's contract while
// several files of one policy grow in turn, so each call's result comes
// out of the scratch the previous call (on another file) filled:
//
//   - folding the returned extents into the previous Extents() with
//     AppendExtent gives the new Extents();
//   - they sum to the growth of AllocatedUnits(), which is at least min;
//   - after ErrNoSpace, Extents(), AllocatedUnits() and FreeUnits() are
//     what they were before the call.
//
// The volumes are small, so they fill and the checks also run on the
// first successful Grow after a failure.
func TestGrowContract(t *testing.T) {
	const total = 1 << 12
	cases := []struct {
		name string
		new  func() (alloc.Policy, error)
	}{
		{"buddy", func() (alloc.Policy, error) {
			return buddy.New(buddy.Config{TotalUnits: total})
		}},
		{"rbuddy-clustered", func() (alloc.Policy, error) {
			return rbuddy.New(rbuddy.Config{TotalUnits: total, SizesUnits: []int64{1, 8, 64, 512},
				Clustered: true, RegionUnits: 1024})
		}},
		{"rbuddy-g1.5", func() (alloc.Policy, error) {
			return rbuddy.New(rbuddy.Config{TotalUnits: total, SizesUnits: []int64{1, 8, 64}, GrowFactor: 1.5})
		}},
		{"extent-first-fit", func() (alloc.Policy, error) {
			return extent.New(extent.Config{TotalUnits: total, Fit: extent.FirstFit,
				RangeMeans: []int64{8, 64}, RNG: sim.NewRNG(1)})
		}},
		{"extent-best-fit", func() (alloc.Policy, error) {
			return extent.New(extent.Config{TotalUnits: total, Fit: extent.BestFit,
				RangeMeans: []int64{8, 64}, RNG: sim.NewRNG(1)})
		}},
		{"fixed-lifo", func() (alloc.Policy, error) {
			return fixed.New(fixed.Config{TotalUnits: total, BlockUnits: 4})
		}},
		{"fixed-address-ordered", func() (alloc.Policy, error) {
			return fixed.New(fixed.Config{TotalUnits: total, BlockUnits: 4, Order: fixed.AddressOrdered})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.new()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			files := make([]alloc.File, 6)
			for i := range files {
				// The hints alternate between the extent policy's two ranges.
				files[i] = p.NewFile(int64(8 << (3 * (i % 2))))
			}
			var grown, failed, afterFailure int
			lastFailed := false
			for step := 0; step < 3000; step++ {
				f := files[rng.Intn(len(files))]
				if rng.Intn(4) == 0 {
					f.TruncateTo(rng.Int63n(f.AllocatedUnits() + 1))
					continue
				}
				need := rng.Int63n(200) + 1
				before := slices.Clone(f.Extents())
				allocated, free := f.AllocatedUnits(), p.FreeUnits()
				added, err := f.Grow(need)
				if errors.Is(err, alloc.ErrNoSpace) {
					if !slices.Equal(f.Extents(), before) || f.AllocatedUnits() != allocated ||
						p.FreeUnits() != free {
						t.Fatalf("step %d: failed Grow(%d) changed the file or the free space", step, need)
					}
					failed++
					lastFailed = true
					continue
				}
				if err != nil {
					t.Fatalf("step %d: Grow(%d): %v", step, need, err)
				}
				want := slices.Clone(before)
				for _, e := range added {
					want = alloc.AppendExtent(want, e)
				}
				if !slices.Equal(f.Extents(), want) {
					t.Fatalf("step %d: Grow(%d) returned %v; folded into %v that is %v, but Extents() is %v",
						step, need, added, before, want, f.Extents())
				}
				sum := alloc.Sum(added)
				if sum != f.AllocatedUnits()-allocated || sum < need {
					t.Fatalf("step %d: Grow(%d) returned %d units; AllocatedUnits went %d -> %d",
						step, need, sum, allocated, f.AllocatedUnits())
				}
				grown++
				if lastFailed {
					afterFailure++
					lastFailed = false
				}
			}
			if grown == 0 || failed == 0 || afterFailure == 0 {
				t.Fatalf("stream too tame: %d grows, %d failures, %d grows after a failure",
					grown, failed, afterFailure)
			}
		})
	}
}
