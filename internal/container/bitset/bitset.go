// Package bitset implements a fixed-size set of block indices as a
// two-level bitmap: the free-space map of the allocation policies whose
// blocks sit at aligned addresses of a few fixed sizes. The binary buddy,
// restricted buddy and address-ordered fixed-block policies keep one set
// per block size, member k standing for the block at k times that size —
// one bit per block, the paper's free-space bitmap (§4.2).
//
// A set allocates only when it is built and holds no pointers, so the
// garbage collector never scans its words. A summary bit per word records
// whether that word has a member, so the successor query Next skips empty
// space 4,096 indices per summary word.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a set of indices in [0, n). Create with New.
type Set struct {
	words   []uint64 // member i is bit i%64 of words[i/64]
	summary []uint64 // bit j%64 of summary[j/64] is set iff words[j] != 0
	n       int64
	count   int
}

// New returns an empty set that can hold the indices 0 through n-1.
func New(n int64) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	nw := (n + 63) >> 6
	return &Set{
		words:   make([]uint64, nw),
		summary: make([]uint64, (nw+63)>>6),
		n:       n,
	}
}

// Len returns the number of members.
func (s *Set) Len() int { return s.count }

// Contains reports whether i is a member; an index outside [0, n) never is.
func (s *Set) Contains(i int64) bool {
	if uint64(i) >= uint64(s.n) {
		return false
	}
	return s.words[i>>6]&(1<<(i&63)) != 0
}

// Add inserts i, which must lie in [0, n), and reports whether it was
// absent.
func (s *Set) Add(i int64) bool {
	if uint64(i) >= uint64(s.n) {
		panic(fmt.Sprintf("bitset: Add(%d) outside [0,%d)", i, s.n))
	}
	w := i >> 6
	bit := uint64(1) << (i & 63)
	old := s.words[w]
	if old&bit != 0 {
		return false
	}
	s.words[w] = old | bit
	if old == 0 {
		s.summary[w>>6] |= 1 << (w & 63)
	}
	s.count++
	return true
}

// Remove deletes i and reports whether it was a member; an index outside
// [0, n) never is.
func (s *Set) Remove(i int64) bool {
	if uint64(i) >= uint64(s.n) {
		return false
	}
	w := i >> 6
	bit := uint64(1) << (i & 63)
	old := s.words[w]
	if old&bit == 0 {
		return false
	}
	s.words[w] = old &^ bit
	if old == bit {
		s.summary[w>>6] &^= 1 << (w & 63)
	}
	s.count--
	return true
}

// Next returns the smallest member >= i, or false when there is none.
func (s *Set) Next(i int64) (int64, bool) {
	if i < 0 {
		i = 0
	}
	if i >= s.n || s.count == 0 {
		return 0, false
	}
	w := i >> 6
	if m := s.words[w] >> (i & 63); m != 0 {
		return i + int64(bits.TrailingZeros64(m)), true
	}
	// The first non-empty word after w, found through the summary.
	w++
	sw := w >> 6
	if sw >= int64(len(s.summary)) {
		return 0, false
	}
	m := s.summary[sw] &^ (1<<(w&63) - 1)
	for m == 0 {
		sw++
		if sw == int64(len(s.summary)) {
			return 0, false
		}
		m = s.summary[sw]
	}
	w = sw<<6 + int64(bits.TrailingZeros64(m))
	return w<<6 + int64(bits.TrailingZeros64(s.words[w])), true
}
