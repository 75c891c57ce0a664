package fs

import (
	"strings"
	"testing"

	"rofs/internal/alloc"
	"rofs/internal/units"
)

// TestFilesCountsLiveFiles: Files() follows creates and deletes, a
// recreated file keeps its id and its slot, and a second Delete of the
// same file changes nothing.
func TestFilesCountsLiveFiles(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	var files []*File
	for i := 0; i < 4; i++ {
		f := fsys.Create(0)
		if f.id != int64(i) {
			t.Fatalf("file %d got id %d; ids must be dense from 0", i, f.id)
		}
		files = append(files, f)
	}
	if got := fsys.Files(); got != 4 {
		t.Fatalf("Files() = %d after 4 creates", got)
	}
	files[1].Delete()
	if got := fsys.Files(); got != 3 {
		t.Fatalf("Files() = %d after a delete, want 3", got)
	}
	files[1].Delete()
	if got := fsys.Files(); got != 3 {
		t.Fatalf("Files() = %d after deleting the same file twice, want 3", got)
	}
	files[2].Allocate(8 * units.KB)
	files[2].Recreate()
	if got := fsys.Files(); got != 3 {
		t.Fatalf("Files() = %d after a recreate, want 3", got)
	}
	if fsys.files[2] != files[2] {
		t.Fatal("recreate moved the file out of its slot")
	}
	if f := fsys.Create(0); f.id != 4 {
		t.Fatalf("create after a delete got id %d; ids are never reused", f.id)
	}
	if got := fsys.Files(); got != 4 {
		t.Fatalf("Files() = %d after another create, want 4", got)
	}
}

// TestCheckAndMetaStatsSkipDeletedSlots: deleted files leave nil slots in
// the table, which fsck and the metadata census pass over.
func TestCheckAndMetaStatsSkipDeletedSlots(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	var files []*File
	for i := 0; i < 6; i++ {
		f := fsys.Create(0)
		if err := f.Allocate(int64(i+1) * 4 * units.KB); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	files[0].Delete()
	files[3].Delete()
	if err := fsys.Check(); err != nil {
		t.Fatalf("fsck with deleted slots: %v", err)
	}
	st := fsys.MetaStats(DefaultMetaModel())
	// The live files hold 2, 3, 5 and 6 blocks, one descriptor each.
	if st.Files != 4 || st.Descriptors != 16 {
		t.Fatalf("MetaStats = %+v, want 4 files and 16 descriptors", st)
	}
}

// TestCheckNamesLowestCorruptFile: fsck walks the table in id order, so
// with two corrupt files it always names the lower id.
func TestCheckNamesLowestCorruptFile(t *testing.T) {
	fsys := newFS(t, 1000, 4)
	fsys.Create(0).Allocate(4 * units.KB)
	for _, start := range []int64{500, 600} {
		inject(fsys, &badFile{
			extents:   []alloc.Extent{{Start: start, Len: 4}},
			allocated: 8, // lies about its total
		})
	}
	for i := 0; i < 20; i++ {
		err := fsys.Check()
		if err == nil || !strings.HasPrefix(err.Error(), "fs: file 1: ") {
			t.Fatalf("fsck error %v, want one naming file 1", err)
		}
	}
}
