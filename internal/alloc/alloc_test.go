package alloc

import (
	"slices"
	"testing"
)

func TestExtentEndString(t *testing.T) {
	e := Extent{Start: 10, Len: 5}
	if e.End() != 15 {
		t.Fatalf("End = %d", e.End())
	}
	if e.String() != "[10,+5)" {
		t.Fatalf("String = %q", e.String())
	}
}

func TestAppendExtentMergesAdjacent(t *testing.T) {
	var list []Extent
	list = AppendExtent(list, Extent{0, 8})
	list = AppendExtent(list, Extent{8, 8}) // adjacent: merges
	list = AppendExtent(list, Extent{32, 8})
	list = AppendExtent(list, Extent{16, 8}) // physically adjacent to #1 but not last: no merge
	if len(list) != 3 {
		t.Fatalf("list = %v", list)
	}
	if list[0] != (Extent{0, 16}) {
		t.Fatalf("merged extent = %v", list[0])
	}
}

// TestAppendExtentsMatchesFold: AppendExtents gives what folding each
// extent in turn with AppendExtent gives.
func TestAppendExtentsMatchesFold(t *testing.T) {
	cases := []struct {
		name        string
		list, added []Extent
	}{
		{"into empty", nil, []Extent{{0, 8}, {8, 8}, {32, 4}}},
		{"nothing added", []Extent{{0, 8}}, nil},
		{"first merges into last", []Extent{{0, 8}}, []Extent{{8, 8}, {64, 8}}},
		{"none merge", []Extent{{100, 4}}, []Extent{{0, 1}, {2, 1}, {4, 1}, {6, 1}, {8, 1}}},
		{"all merge", []Extent{{0, 1}}, []Extent{{1, 1}, {2, 2}, {4, 4}, {8, 8}}},
		{"adjacent to an earlier entry only", []Extent{{0, 8}, {32, 8}}, []Extent{{8, 8}}},
	}
	for _, c := range cases {
		want := slices.Clone(c.list)
		for _, e := range c.added {
			want = AppendExtent(want, e)
		}
		if got := AppendExtents(slices.Clone(c.list), c.added); !slices.Equal(got, want) {
			t.Errorf("%s: AppendExtents(%v, %v) = %v, want %v", c.name, c.list, c.added, got, want)
		}
	}
}

// TestTrimExtentUndoesAppend: trimming the length just appended restores
// the list, whether the append opened a new entry or lengthened a merged
// one.
func TestTrimExtentUndoesAppend(t *testing.T) {
	cases := []struct {
		name string
		list []Extent
		e    Extent
	}{
		{"into empty", nil, Extent{0, 8}},
		{"new entry", []Extent{{0, 8}}, Extent{32, 8}},
		{"merged into last", []Extent{{0, 8}}, Extent{8, 8}},
		{"merged into long run", []Extent{{100, 4}, {0, 64}}, Extent{64, 1}},
		{"adjacent to an earlier entry only", []Extent{{0, 8}, {32, 8}}, Extent{8, 8}},
	}
	for _, c := range cases {
		before := slices.Clone(c.list)
		got := TrimExtent(AppendExtent(slices.Clone(c.list), c.e), c.e.Len)
		if !slices.Equal(got, before) {
			t.Errorf("%s: trim(append(%v, %v)) = %v", c.name, before, c.e, got)
		}
	}
}

// TestTrimExtentShortensMergedRun: trimming part of a merged extent only
// shortens it; trimming the rest removes it.
func TestTrimExtentShortensMergedRun(t *testing.T) {
	list := []Extent{{0, 4}, {16, 12}}
	list = TrimExtent(list, 4)
	if want := []Extent{{0, 4}, {16, 8}}; !slices.Equal(list, want) {
		t.Fatalf("after partial trim: %v, want %v", list, want)
	}
	list = TrimExtent(list, 8)
	if want := []Extent{{0, 4}}; !slices.Equal(list, want) {
		t.Fatalf("after full trim: %v, want %v", list, want)
	}
}

func TestValidate(t *testing.T) {
	ok := []Extent{{0, 8}, {16, 8}, {8, 8}}
	if err := Validate(ok, 100); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	cases := []struct {
		name string
		list []Extent
	}{
		{"zero length", []Extent{{0, 0}}},
		{"negative start", []Extent{{-1, 4}}},
		{"past end", []Extent{{96, 8}}},
		{"overlap", []Extent{{0, 10}, {5, 10}}},
		{"contained overlap", []Extent{{0, 20}, {5, 5}}},
	}
	for _, c := range cases {
		if err := Validate(c.list, 100); err == nil {
			t.Errorf("%s: invalid list accepted", c.name)
		}
	}
}

func TestSum(t *testing.T) {
	if Sum(nil) != 0 {
		t.Fatal("Sum(nil) != 0")
	}
	if Sum([]Extent{{0, 3}, {10, 7}}) != 10 {
		t.Fatal("Sum wrong")
	}
}
