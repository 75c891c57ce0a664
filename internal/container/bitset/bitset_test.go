package bitset

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// fullScaleClass0 is the largest set the simulator builds: one bit per
// 1K unit of the full-scale array (eight 337.5M Wren IV drives).
const fullScaleClass0 = 2_764_800

// TestAgainstSortedSlice drives sets whose sizes straddle both word levels
// (one word, one summary word) with random Add/Remove traffic and checks
// every observable against a sorted-slice reference: Add and Remove
// results, Len, Contains, Next from random probes, from just past the last
// member, from n and beyond, and the full ascending walk.
func TestAgainstSortedSlice(t *testing.T) {
	for _, n := range []int64{1, 63, 64, 65, 4095, 4096, 4097, fullScaleClass0} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(n))
			s := New(n)
			var ref []int64 // sorted members

			find := func(i int64) (int, bool) {
				j := sort.Search(len(ref), func(j int) bool { return ref[j] >= i })
				return j, j < len(ref) && ref[j] == i
			}
			refNext := func(i int64) (int64, bool) {
				if i >= n {
					return 0, false
				}
				j, _ := find(i)
				if j == len(ref) {
					return 0, false
				}
				return ref[j], true
			}
			// Indices cluster at word and summary boundaries half the time.
			pick := func() int64 {
				if rng.Intn(2) == 0 {
					return rng.Int63n(n)
				}
				edges := []int64{0, 63, 64, 4095, 4096, n - 1, n / 2}
				i := edges[rng.Intn(len(edges))] + int64(rng.Intn(5)) - 2
				if i < 0 || i >= n {
					return n - 1
				}
				return i
			}
			checkNext := func(step int, i int64) {
				t.Helper()
				got, gok := s.Next(i)
				want, wok := refNext(i)
				if gok != wok || (wok && got != want) {
					t.Fatalf("step %d: Next(%d) = %d,%v, want %d,%v", step, i, got, gok, want, wok)
				}
			}

			for step := 0; step < 3000; step++ {
				i := pick()
				switch op := rng.Intn(8); {
				case op < 4:
					j, present := find(i)
					if got := s.Add(i); got == present {
						t.Fatalf("step %d: Add(%d) = %v with member present=%v", step, i, got, present)
					}
					if !present {
						ref = append(ref, 0)
						copy(ref[j+1:], ref[j:])
						ref[j] = i
					}
				case op < 7:
					j, present := find(i)
					if got := s.Remove(i); got != present {
						t.Fatalf("step %d: Remove(%d) = %v, want %v", step, i, got, present)
					}
					if present {
						ref = append(ref[:j], ref[j+1:]...)
					}
				default:
					for _, out := range []int64{-1, -64, n, n + 1, n + 4096} {
						if s.Remove(out) || s.Contains(out) {
							t.Fatalf("step %d: out-of-range index %d reported as a member", step, out)
						}
					}
				}
				if s.Len() != len(ref) {
					t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref))
				}
				if _, present := find(i); s.Contains(i) != present {
					t.Fatalf("step %d: Contains(%d) = %v, want %v", step, i, !present, present)
				}
				checkNext(step, pick())
				checkNext(step, -3)
				checkNext(step, n)
				checkNext(step, n+65)
				if len(ref) > 0 {
					checkNext(step, ref[len(ref)-1])
					checkNext(step, ref[len(ref)-1]+1)
				}
			}

			var walk []int64
			for k, ok := s.Next(0); ok; k, ok = s.Next(k + 1) {
				walk = append(walk, k)
			}
			if fmt.Sprint(walk) != fmt.Sprint(ref) {
				t.Fatalf("ascending walk %v, want %v", walk, ref)
			}
		})
	}
}

func TestEmptySet(t *testing.T) {
	for _, n := range []int64{0, 1, 4097} {
		s := New(n)
		if s.Len() != 0 || s.Contains(0) || s.Remove(0) {
			t.Fatalf("New(%d) is not empty", n)
		}
		if _, ok := s.Next(0); ok {
			t.Fatalf("Next on empty New(%d) found a member", n)
		}
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	for _, i := range []int64{-1, 65, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) on a 65-member set did not panic", i)
				}
			}()
			New(65).Add(i)
		}()
	}
}

var nextSink int64

// BenchmarkNextRemoveAdd is the buddy policies' take-and-return cycle on a
// sparse full-scale class-0 set: find the first free block at or after a
// probe, take it, and free it again. Probes land in empty space most of
// the time, so the summary level does the skipping.
func BenchmarkNextRemoveAdd(b *testing.B) {
	s := New(fullScaleClass0)
	rng := rand.New(rand.NewSource(1))
	for s.Len() < 1000 {
		s.Add(rng.Int63n(fullScaleClass0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, ok := s.Next(int64(i*7919) % fullScaleClass0)
		if !ok {
			k, _ = s.Next(0)
		}
		s.Remove(k)
		s.Add(k)
		nextSink = k
	}
}
