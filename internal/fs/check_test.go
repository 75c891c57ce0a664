package fs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/units"
)

// badFile is a corrupt alloc.File for failure-injection: it lets tests
// hand the file system impossible extent lists.
type badFile struct {
	extents   []alloc.Extent
	allocated int64
}

func (b *badFile) Extents() []alloc.Extent            { return b.extents }
func (b *badFile) AllocatedUnits() int64              { return b.allocated }
func (b *badFile) Grow(int64) ([]alloc.Extent, error) { return nil, alloc.ErrNoSpace }
func (b *badFile) TruncateTo(int64)                   {}
func (b *badFile) Rearm(int64)                        {}

// inject adds fa to the file table at the next id, as Create would.
func inject(fsys *FileSystem, fa alloc.File) *File {
	f := &File{fs: fsys, id: int64(len(fsys.files)), fa: fa}
	fsys.files = append(fsys.files, f)
	fsys.live++
	return f
}

func TestCheckCleanSystem(t *testing.T) {
	fsys := newFS(t, 10000, 4)
	rng := rand.New(rand.NewSource(4))
	var files []*File
	for i := 0; i < 50; i++ {
		f := fsys.Create(0)
		if err := f.Allocate(rng.Int63n(50*units.KB) + 1); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	for i := 0; i < 200; i++ {
		f := files[rng.Intn(len(files))]
		switch rng.Intn(3) {
		case 0:
			f.Allocate(rng.Int63n(8*units.KB) + 1)
		case 1:
			f.Truncate(rng.Int63n(8*units.KB) + 1)
		case 2:
			f.Recreate()
			f.Allocate(rng.Int63n(20*units.KB) + 1)
		}
	}
	if err := fsys.Check(); err != nil {
		t.Fatalf("clean system failed fsck: %v", err)
	}
}

func TestCheckDetectsOverlap(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	a := fsys.Create(0)
	a.Allocate(8 * units.KB)
	// Inject a corrupt file whose extents overlap a's allocation.
	bad := inject(fsys, &badFile{
		extents:   []alloc.Extent{{Start: 2, Len: 4}},
		allocated: 4,
	})
	defer bad.Delete()
	err := fsys.Check()
	if err == nil {
		t.Fatal("fsck missed a cross-file overlap")
	}
	// Either the overlap or the space-leak invariant may fire first; both
	// indicate the corruption.
	if !strings.Contains(err.Error(), "overlap") && !strings.Contains(err.Error(), "leak") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// ledgerPolicy is a policy that places nothing itself: tests inject its
// files, and its free count is whatever the test sets, so a table row can
// keep the space accounting balanced and leave only the overlap check to
// fire.
type ledgerPolicy struct{ total, free int64 }

func (p *ledgerPolicy) Name() string             { return "ledger" }
func (p *ledgerPolicy) TotalUnits() int64        { return p.total }
func (p *ledgerPolicy) FreeUnits() int64         { return p.free }
func (p *ledgerPolicy) NewFile(int64) alloc.File { return &badFile{} }

// TestCheckOverlapTable pins fsck's overlap detection unit by unit: every
// row but the precedence ones balances allocated + free == total, so the
// overlap (or its absence) is the only finding. Files are injected in
// order and numbered from 0. The 1000-unit rows hold enough extents for
// their volume to be marked in the bitmap directly; the sparse rows'
// extents are sorted first.
func TestCheckOverlapTable(t *testing.T) {
	type ext = alloc.Extent
	for _, tc := range []struct {
		name  string
		total int64
		files [][]ext
		// lie adds to the last file's AllocatedUnits; leak adds to the
		// policy's free count; drift adds to the used-bytes counter.
		lie, leak, drift int64
		want             string
	}{
		{name: "shared unit 0", total: 1000,
			files: [][]ext{{{Start: 0, Len: 16}}, {{Start: 0, Len: 1}}},
			want:  "fs: files overlap at units [0,1)"},
		{name: "shared last unit, volume not a multiple of 64", total: 1000,
			files: [][]ext{{{Start: 990, Len: 10}}, {{Start: 999, Len: 1}}},
			want:  "fs: files overlap at units [999,1000)"},
		{name: "straddles a word boundary", total: 1000,
			files: [][]ext{{{Start: 50, Len: 20}}, {{Start: 60, Len: 20}}},
			want:  "fs: files overlap at units [60,70)"},
		{name: "whole aligned word", total: 1000,
			files: [][]ext{{{Start: 100, Len: 200}}, {{Start: 128, Len: 64}}},
			want:  "fs: files overlap at units [128,192)"},
		{name: "second extent overlaps two files", total: 1000,
			files: [][]ext{
				{{Start: 300, Len: 10}},
				{{Start: 310, Len: 10}},
				{{Start: 0, Len: 5}, {Start: 305, Len: 20}},
			},
			want: "fs: files overlap at units [305,320)"},
		{name: "adjacent across and inside words", total: 1000,
			files: [][]ext{
				{{Start: 40, Len: 24}, {Start: 134, Len: 10}, {Start: 255, Len: 1}, {Start: 320, Len: 1}},
				{{Start: 64, Len: 30}, {Start: 200, Len: 55}, {Start: 321, Len: 679}},
				{{Start: 94, Len: 40}, {Start: 144, Len: 56}, {Start: 256, Len: 64}},
			}},
		{name: "first overlap by file id is reported", total: 1000,
			files: [][]ext{
				{{Start: 0, Len: 16}},
				{{Start: 8, Len: 4}},
				{{Start: 0, Len: 2}},
				{{Start: 500, Len: 4}},
			},
			want: "fs: files overlap at units [8,12)"},
		{name: "sparse volume: sort finds the overlap, the bitmap names it", total: 1 << 20,
			files: [][]ext{
				{{Start: 1000, Len: 9000}},
				{{Start: 20000, Len: 10}},
				{{Start: 5000, Len: 100}, {Start: 30000, Len: 50}},
			},
			want: "fs: files overlap at units [5000,5100)"},
		{name: "sparse volume: adjacent extents", total: 1 << 20,
			files: [][]ext{
				{{Start: 0, Len: 100}, {Start: 300, Len: 700}},
				{{Start: 100, Len: 200}},
				{{Start: 1000, Len: 1<<20 - 1000}},
			}},
		{name: "per-file error wins", total: 1000,
			files: [][]ext{{{Start: 0, Len: 16}}, {{Start: 8, Len: 4}}, {{Start: 500, Len: 4}}},
			lie:   4,
			want:  "fs: file 2: extents sum to 4 units but AllocatedUnits is 8"},
		{name: "out-of-volume extent wins", total: 1000,
			files: [][]ext{{{Start: 0, Len: 16}}, {{Start: 8, Len: 4}}, {{Start: 996, Len: 8}}},
			want:  "fs: file 2: alloc: extent 0 [996,+8) outside [0,1000)"},
		{name: "used-bytes drift wins", total: 1000,
			files: [][]ext{{{Start: 0, Len: 16}}, {{Start: 8, Len: 4}}},
			drift: 3,
			want:  "fs: used-bytes accounting drifted: files sum to 0, counter says 3"},
		{name: "space leak wins", total: 1000,
			files: [][]ext{{{Start: 0, Len: 16}}, {{Start: 8, Len: 4}}},
			leak:  -1,
			want:  "fs: space leak: 20 allocated + 979 free != 1000 total"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &ledgerPolicy{total: tc.total, free: tc.total + tc.leak}
			fsys, err := New(p, nil, units.KB)
			if err != nil {
				t.Fatal(err)
			}
			for i, extents := range tc.files {
				bf := &badFile{extents: extents, allocated: alloc.Sum(extents)}
				if i == len(tc.files)-1 {
					bf.allocated += tc.lie
				}
				inject(fsys, bf)
				p.free -= bf.allocated
			}
			fsys.usedBytes += tc.drift
			err = fsys.Check()
			if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && got != tc.want {
				t.Fatalf("Check() = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestCheckDetectsLengthBeyondAllocation(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(0)
	f.Allocate(4 * units.KB)
	f.length = 100 * units.KB // corrupt directly
	defer func() { f.length = 4 * units.KB }()
	if err := fsys.Check(); err == nil {
		t.Fatal("fsck missed length > allocation")
	}
}

func TestCheckDetectsAccountingDrift(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	f := fsys.Create(0)
	f.Allocate(4 * units.KB)
	fsys.usedBytes += 12345 // corrupt the counter
	if err := fsys.Check(); err == nil {
		t.Fatal("fsck missed used-bytes drift")
	}
	fsys.usedBytes -= 12345
	if err := fsys.Check(); err != nil {
		t.Fatalf("repaired system still failing: %v", err)
	}
}

func TestCheckDetectsBadExtentSum(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	inject(fsys, &badFile{
		extents:   []alloc.Extent{{Start: 500, Len: 4}},
		allocated: 8, // lies about its total
	})
	if err := fsys.Check(); err == nil {
		t.Fatal("fsck missed extent-sum mismatch")
	}
}

func TestMetaModel(t *testing.T) {
	m := DefaultMetaModel()
	// Few descriptors: inode only.
	if got := m.FileMetaBytes(3); got != m.InodeBytes {
		t.Fatalf("FileMetaBytes(3) = %d, want inode only", got)
	}
	if got := m.FileMetaBytes(12); got != m.InodeBytes {
		t.Fatalf("FileMetaBytes(12) = %d, want inode only", got)
	}
	// One descriptor over the direct slots: one indirect block.
	if got := m.FileMetaBytes(13); got != m.InodeBytes+m.IndirectBlockBytes {
		t.Fatalf("FileMetaBytes(13) = %d", got)
	}
	// A 210M fixed-16K file: 13440 pointers, ~39 indirect 4K blocks.
	n := int64(13440)
	want := m.InodeBytes + units.CeilDiv((n-12)*m.DescriptorBytes, m.IndirectBlockBytes)*m.IndirectBlockBytes
	if got := m.FileMetaBytes(n); got != want {
		t.Fatalf("FileMetaBytes(%d) = %d, want %d", n, got, want)
	}
}

func TestMetaStatsComparesPolicies(t *testing.T) {
	// The same 1M of files costs far more metadata under 4K fixed blocks
	// than under a policy reporting few descriptors.
	fixedFS := newFS(t, 10000, 4)
	for i := 0; i < 10; i++ {
		f := fixedFS.Create(0)
		f.Allocate(100 * units.KB) // 25 blocks each: indirect overflow
	}
	stats := fixedFS.MetaStats(DefaultMetaModel())
	if stats.Files != 10 || stats.Descriptors != 250 {
		t.Fatalf("fixed meta stats: %+v", stats)
	}
	if stats.MetaBytes <= 10*DefaultMetaModel().InodeBytes {
		t.Fatal("fixed-block files should overflow into indirect blocks")
	}
	if stats.MetaPctOfData <= 0 {
		t.Fatal("MetaPctOfData not computed")
	}
}
