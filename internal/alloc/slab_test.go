package alloc

import "testing"

// TestSlabCutsDoNotOverlap: records and first backing arrays cut from one
// slab are distinct and zero, a list carved with Grow has exactly the room
// asked for, and appending past it moves the list instead of writing into
// the next cut — across chunk boundaries and an oversized request too.
func TestSlabCutsDoNotOverlap(t *testing.T) {
	var s Slab[Extent]
	var lists [][]Extent
	for i := 0; i < 3*slabMaxChunk; i++ {
		n := 1 + i%5
		if i == slabMaxChunk {
			n = 2 * slabMaxChunk // larger than any chunk
		}
		l := s.Grow(nil, n)
		if len(l) != 0 || cap(l) != n {
			t.Fatalf("cut %d: Grow(nil, %d) gave len %d cap %d", i, n, len(l), cap(l))
		}
		for j := 0; j <= n; j++ { // one past the carved room
			l = append(l, Extent{Start: int64(i), Len: int64(j + 1)})
		}
		lists = append(lists, l)
		if r := s.New(); *r != (Extent{}) {
			t.Fatalf("cut %d: New returned %v, not a zero record", i, *r)
		} else {
			*r = Extent{Start: -1, Len: -1}
		}
	}
	for i, l := range lists {
		for j, e := range l {
			if e != (Extent{Start: int64(i), Len: int64(j + 1)}) {
				t.Fatalf("list %d entry %d is %v: another cut wrote into it", i, j, e)
			}
		}
	}
	l := lists[0][:1]
	if g := s.Grow(l, 8); cap(g)-len(g) < 8 || g[0] != l[0] {
		t.Fatalf("Grow of a list with a backing array lost room or contents: %v cap %d", g, cap(g))
	}
}
