package freelist

import "testing"

// fragmented builds a map of n free runs with varied lengths, separated
// by allocated gaps so neighbours never coalesce — the steady-state shape
// of an aged extent free map.
func fragmented(n int) *T {
	t := New()
	addr := int64(0)
	for i := 0; i < n; i++ {
		length := int64(1 + i%17)
		t.Insert(addr, length)
		addr += length + 3
	}
	return t
}

// BenchmarkFirstFit lives in freelist_test.go; the best-fit counterpart
// searches the (length, address) index instead of the treap.
func BenchmarkBestFit(b *testing.B) {
	t := fragmented(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.BestFit(int64(1 + i%17)); !ok {
			b.Fatal("no fit")
		}
	}
}

// BenchmarkAllocFreeCycle measures the full mutation path — search, carve,
// free with coalescing — for both placement disciplines.
func BenchmarkAllocFreeCycle(b *testing.B) {
	for _, mode := range []struct {
		name string
		pick func(t *T, n int64) (Run, bool)
	}{
		{"first-fit", (*T).FirstFit},
		{"best-fit", (*T).BestFit},
	} {
		b.Run(mode.name, func(b *testing.B) {
			t := fragmented(4096)
			// The first BestFit builds the lazy size index; pick once
			// before the timer so the loop times the steady cycle alone.
			if _, ok := mode.pick(t, 1); !ok {
				b.Fatal("no fit")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				need := int64(1 + i%9)
				r, ok := mode.pick(t, need)
				if !ok {
					b.Fatal("no fit")
				}
				t.Alloc(r.Addr, need)
				t.Insert(r.Addr, need)
			}
		})
	}
}

// BenchmarkInsertCoalesce measures freeing into both neighbours at once:
// carve three adjacent pieces out of one run, then free the middle last so
// the final Insert merges twice.
func BenchmarkInsertCoalesce(b *testing.B) {
	t := New()
	t.Insert(0, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Alloc(100, 30)
		t.Insert(100, 10)
		t.Insert(120, 10)
		t.Insert(110, 10)
	}
}
