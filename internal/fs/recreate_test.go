package fs

import (
	"slices"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/alloc/buddy"
	"rofs/internal/alloc/extent"
	"rofs/internal/alloc/fixed"
	"rofs/internal/alloc/rbuddy"
	"rofs/internal/sim"
	"rofs/internal/units"
)

// recreateUnits is the volume of the recreate tests and benchmark: 16M in
// 1K units, sixteen 1M regions for the clustered restricted buddy.
const recreateUnits = 1 << 14

// recreatePolicies covers the four policies in the configurations whose
// file creation changes the policy, or could: a clustered restricted
// buddy places each new descriptor in the next region, and the extent
// policy chooses a file's range from its size hint (16K picks the middle
// of three ranges).
var recreatePolicies = []struct {
	name string
	new  func() (alloc.Policy, error)
}{
	{"buddy", func() (alloc.Policy, error) {
		return buddy.New(buddy.Config{TotalUnits: recreateUnits})
	}},
	{"rbuddy-clustered", func() (alloc.Policy, error) {
		return rbuddy.New(rbuddy.Config{TotalUnits: recreateUnits, SizesUnits: []int64{1, 8, 64, 512},
			Clustered: true, RegionUnits: 1024})
	}},
	{"rbuddy-unclustered", func() (alloc.Policy, error) {
		return rbuddy.New(rbuddy.Config{TotalUnits: recreateUnits, SizesUnits: []int64{1, 8, 64, 512}})
	}},
	{"extent-first-fit", func() (alloc.Policy, error) {
		return extent.New(extent.Config{TotalUnits: recreateUnits, Fit: extent.FirstFit,
			RangeMeans: []int64{4, 16, 64}, RNG: sim.NewRNG(3)})
	}},
	{"fixed-lifo", func() (alloc.Policy, error) {
		return fixed.New(fixed.Config{TotalUnits: recreateUnits, BlockUnits: 4})
	}},
	{"fixed-address-ordered", func() (alloc.Policy, error) {
		return fixed.New(fixed.Config{TotalUnits: recreateUnits, BlockUnits: 4, Order: fixed.AddressOrdered})
	}},
}

// TestRecreateIsDeleteAndCreate pins alloc.File.Rearm's contract through
// the file system: recreating a file must leave the policy exactly where
// deleting it and creating a new file with the same size hint does. Two
// identical file systems take the same steps, except that A recreates X
// where B deletes X and creates X2. A file Y created right after, before
// any allocation, sees where the policy's descriptor placement stands;
// then every file grows again, and each file's extents and the free
// space must agree.
func TestRecreateIsDeleteAndCreate(t *testing.T) {
	const hint = 16 * units.KB
	for _, c := range recreatePolicies {
		t.Run(c.name, func(t *testing.T) {
			build := func() *FileSystem {
				p, err := c.new()
				if err != nil {
					t.Fatal(err)
				}
				fsys, err := New(p, nil, units.KB)
				if err != nil {
					t.Fatal(err)
				}
				return fsys
			}
			a, b := build(), build()
			// files[i] of each side plays the same role; X is files[0].
			var filesA, filesB []*File
			both := func(do func(fsys *FileSystem, files *[]*File)) {
				do(a, &filesA)
				do(b, &filesB)
			}
			create := func() {
				both(func(fsys *FileSystem, files *[]*File) { *files = append(*files, fsys.Create(hint)) })
			}
			allocate := func(i int, n int64) {
				both(func(_ *FileSystem, files *[]*File) {
					if err := (*files)[i].Allocate(n); err != nil {
						t.Fatalf("file %d: Allocate(%d): %v", i, n, err)
					}
				})
			}

			// X and three more files, each grown in its turn, so the
			// clustered policy's last satisfied region moves past X's.
			for i, size := range []int64{12, 40, 5, 700} {
				create()
				allocate(i, size*units.KB)
			}
			filesA[0].Recreate()
			filesB[0].Delete()
			filesB[0] = b.Create(hint)
			create() // Y
			allocate(4, 3*units.KB)
			for i, size := range []int64{20, 9, 30, 2, 100} {
				allocate(i, size*units.KB)
			}

			for i := range filesA {
				fa, fb := filesA[i].Alloc(), filesB[i].Alloc()
				if !slices.Equal(fa.Extents(), fb.Extents()) {
					t.Errorf("file %d: recreated side has extents %v, delete-and-create side %v",
						i, fa.Extents(), fb.Extents())
				}
			}
			pa, pb := a.Policy(), b.Policy()
			if pa.FreeUnits() != pb.FreeUnits() {
				t.Errorf("free units: %d after recreate, %d after delete and create",
					pa.FreeUnits(), pb.FreeUnits())
			}
			if sa, sb := freeSpace(pa), freeSpace(pb); sa != sb {
				t.Errorf("free space: %+v after recreate, %+v after delete and create", sa, sb)
			}
			for _, fsys := range []*FileSystem{a, b} {
				if err := fsys.Check(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

func freeSpace(p alloc.Policy) alloc.FreeSpaceStats {
	return p.(alloc.FreeSpaceReporter).FreeSpaceStats()
}

// BenchmarkCreateRecreate is file creation's allocation gate. Each
// iteration creates a file with a 16K size hint, allocates 12K, recreates
// it, allocates 20K and deletes it. The file's record, its policy handle
// and its lists' first backing arrays come from slabs, and Recreate
// re-arms the handle, so what an iteration may still allocate is the
// recreated file outgrowing the lists its first life carved.
func BenchmarkCreateRecreate(b *testing.B) {
	for _, c := range recreatePolicies {
		b.Run(c.name, func(b *testing.B) {
			p, err := c.new()
			if err != nil {
				b.Fatal(err)
			}
			fsys, err := New(p, nil, units.KB)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := fsys.Create(16 * units.KB)
				if err := f.Allocate(12 * units.KB); err != nil {
					b.Fatal(err)
				}
				f.Recreate()
				if err := f.Allocate(20 * units.KB); err != nil {
					b.Fatal(err)
				}
				f.Delete()
			}
			if got := p.FreeUnits(); got != p.TotalUnits() {
				b.Fatalf("leaked units: %d free of %d", got, p.TotalUnits())
			}
		})
	}
}
