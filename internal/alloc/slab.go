package alloc

import "slices"

// Slab hands out records of type T, and the first backing arrays of
// lists of T, from chunks it allocates itself, so that creating a file
// costs a share of one heap allocation instead of one allocation per
// record and list. Chunks start at slabMinChunk elements and double up to
// slabMaxChunk: a slab that serves few files stays small, and one that
// serves many rarely allocates. Nothing is returned to a slab; a chunk
// lives as long as anything cut from it.
//
// A Slab belongs to one Policy or one fs.FileSystem and, like them, is
// not safe for concurrent use. The zero value is an empty slab.
type Slab[T any] struct {
	free  []T // the unused rest of the current chunk
	chunk int // length of the current chunk
}

const (
	slabMinChunk = 8
	slabMaxChunk = 1024
)

// New returns a pointer to a zero T.
func (s *Slab[T]) New() *T {
	return &s.take(1)[0]
}

// Grow returns list with room for n more elements, as slices.Grow does,
// except that a list with no backing array yet gets exactly n elements
// from the slab. Appending past that capacity moves the list to an
// ordinary heap array, as append always does.
func (s *Slab[T]) Grow(list []T, n int) []T {
	if cap(list) == 0 && n > 0 {
		return s.take(n)[:0]
	}
	return slices.Grow(list, n)
}

// take cuts n zero elements from the current chunk, starting a new chunk
// (of at least n) when the current one is short. The result's capacity is
// n, so an append past it never writes into the next cut.
func (s *Slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.chunk = min(max(2*s.chunk, slabMinChunk), slabMaxChunk)
		s.free = make([]T, max(s.chunk, n))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}
