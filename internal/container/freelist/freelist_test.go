package freelist

import (
	"math/rand"
	"slices"
	"testing"
)

func TestEmpty(t *testing.T) {
	fl := New()
	if fl.FreeUnits() != 0 || fl.Runs() != 0 || fl.MaxRun() != 0 {
		t.Fatal("empty list not empty")
	}
	if _, ok := fl.FirstFit(1); ok {
		t.Fatal("FirstFit on empty returned a run")
	}
	if _, ok := fl.BestFit(1); ok {
		t.Fatal("BestFit on empty returned a run")
	}
}

// runsOf lists the map's runs in address order.
func runsOf(fl *T) []Run {
	var got []Run
	fl.Ascend(func(r Run) bool { got = append(got, r); return true })
	return got
}

func TestInsertCoalescesBothSides(t *testing.T) {
	fl := New()
	fl.Insert(0, 10)
	fl.Insert(20, 10)
	if fl.Runs() != 2 {
		t.Fatalf("Runs = %d", fl.Runs())
	}
	fl.Insert(10, 10) // bridges the gap
	if fl.Runs() != 1 {
		t.Fatalf("Runs = %d after bridging insert", fl.Runs())
	}
	r, ok := fl.FirstFit(30)
	if !ok || r.Addr != 0 || r.Len != 30 {
		t.Fatalf("coalesced run = %+v", r)
	}
	if fl.FreeUnits() != 30 {
		t.Fatalf("FreeUnits = %d", fl.FreeUnits())
	}
}

func TestInsertCoalescesLeftOnly(t *testing.T) {
	fl := New()
	fl.Insert(0, 10)
	fl.Insert(10, 5)
	if fl.Runs() != 1 || fl.MaxRun() != 15 {
		t.Fatalf("Runs=%d MaxRun=%d", fl.Runs(), fl.MaxRun())
	}
}

func TestInsertOverlapPanics(t *testing.T) {
	for _, c := range []struct{ addr, len int64 }{{5, 3}, {0, 3}, {9, 5}} {
		fl := New()
		fl.Insert(0, 10)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("overlapping insert [%d,+%d) did not panic", c.addr, c.len)
				}
			}()
			fl.Insert(c.addr, c.len)
		}()
	}
}

func TestAllocInterior(t *testing.T) {
	fl := New()
	fl.Insert(0, 100)
	fl.Alloc(40, 20) // splits into [0,40) and [60,100)
	if fl.Runs() != 2 || fl.FreeUnits() != 80 {
		t.Fatalf("Runs=%d Free=%d", fl.Runs(), fl.FreeUnits())
	}
	if got := runsOf(fl); !slices.Equal(got, []Run{{0, 40}, {60, 40}}) {
		t.Fatalf("runs after interior Alloc = %+v, want [0,+40) [60,+40)", got)
	}
}

func TestAllocWholeRun(t *testing.T) {
	fl := New()
	fl.Insert(10, 5)
	fl.Alloc(10, 5)
	if fl.Runs() != 0 || fl.FreeUnits() != 0 {
		t.Fatal("whole-run alloc left residue")
	}
}

func TestAllocOutsideFreePanics(t *testing.T) {
	fl := New()
	fl.Insert(0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc beyond run did not panic")
		}
	}()
	fl.Alloc(5, 10)
}

func TestFirstFitIsLowestAddress(t *testing.T) {
	fl := New()
	fl.Insert(100, 5)
	fl.Insert(0, 3)
	fl.Insert(50, 10)
	r, ok := fl.FirstFit(4)
	if !ok || r.Addr != 50 {
		t.Fatalf("FirstFit(4) = %+v, want addr 50", r)
	}
	r, ok = fl.FirstFit(1)
	if !ok || r.Addr != 0 {
		t.Fatalf("FirstFit(1) = %+v, want addr 0", r)
	}
	if _, ok = fl.FirstFit(11); ok {
		t.Fatal("FirstFit(11) found a run")
	}
}

func TestBestFitIsSmallestSufficient(t *testing.T) {
	fl := New()
	fl.Insert(0, 100)
	fl.Insert(200, 7)
	fl.Insert(300, 5)
	r, ok := fl.BestFit(5)
	if !ok || r.Addr != 300 || r.Len != 5 {
		t.Fatalf("BestFit(5) = %+v, want [300,+5)", r)
	}
	r, ok = fl.BestFit(6)
	if !ok || r.Addr != 200 {
		t.Fatalf("BestFit(6) = %+v, want [200,+7)", r)
	}
	// Ties by length resolve to the lowest address.
	fl.Insert(150, 5)
	r, _ = fl.BestFit(5)
	if r.Addr != 150 {
		t.Fatalf("BestFit tie = %+v, want addr 150", r)
	}
}

func TestAscendOrder(t *testing.T) {
	fl := New()
	for _, a := range []int64{500, 100, 300} {
		fl.Insert(a, 10)
	}
	var addrs []int64
	fl.Ascend(func(r Run) bool {
		addrs = append(addrs, r.Addr)
		return true
	})
	if len(addrs) != 3 || addrs[0] != 100 || addrs[1] != 300 || addrs[2] != 500 {
		t.Fatalf("Ascend order %v", addrs)
	}
}

// TestRandomizedAgainstReference drives the freelist with random alloc/free
// traffic and compares against a boolean-slice reference model.
func TestRandomizedAgainstReference(t *testing.T) {
	const space = 2000
	rng := rand.New(rand.NewSource(7))
	fl := New()
	free := make([]bool, space)
	fl.Insert(0, space)
	for i := range free {
		free[i] = true
	}

	refFreeCount := func() int64 {
		var n int64
		for _, f := range free {
			if f {
				n++
			}
		}
		return n
	}
	// The first firstFitSteps steps allocate first-fit only, so the size
	// index does not exist yet and the first BestFit builds it from a
	// fragmented map rather than from the initial single run.
	const firstFitSteps = 2000
	for step := 0; step < firstFitSteps+5000; step++ {
		n := int64(rng.Intn(16) + 1)
		if rng.Intn(2) == 0 {
			// Allocate via first- or best-fit, carving from the run start.
			var r Run
			var ok bool
			if rng.Intn(2) == 0 || step < firstFitSteps {
				r, ok = fl.FirstFit(n)
				wr, wok := refFit(free, n, false)
				if ok != wok || (ok && r != wr) {
					t.Fatalf("step %d: FirstFit(%d) = %+v,%v want %+v,%v", step, n, r, ok, wr, wok)
				}
			} else {
				built := fl.bySize != nil
				r, ok = fl.BestFit(n)
				wr, wok := refFit(free, n, true)
				if ok != wok || (ok && r != wr) {
					t.Fatalf("step %d: BestFit(%d) = %+v,%v want %+v,%v", step, n, r, ok, wr, wok)
				}
				if !built && fl.bySize.Len() < 10 {
					t.Fatalf("step %d: size index built from %d runs; the map is not fragmented",
						step, fl.bySize.Len())
				}
			}
			if ok {
				fl.Alloc(r.Addr, n)
				for i := r.Addr; i < r.Addr+n; i++ {
					free[i] = false
				}
			}
		} else {
			// Free a random currently-allocated range.
			start := rng.Intn(space)
			end := start
			for end < space && !free[end] && int64(end-start) < n {
				end++
			}
			if end > start {
				fl.Insert(int64(start), int64(end-start))
				for i := start; i < end; i++ {
					free[i] = true
				}
			}
		}
		if fl.FreeUnits() != refFreeCount() {
			t.Fatalf("step %d: FreeUnits = %d, want %d", step, fl.FreeUnits(), refFreeCount())
		}
		if step < firstFitSteps && fl.bySize != nil {
			t.Fatalf("step %d: a map that has only answered FirstFit holds a size index", step)
		}
		if step%250 == 0 {
			want, got := refRuns(free), runsOf(fl)
			if len(got) != len(want) {
				t.Fatalf("step %d: %d runs, want %d", step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: run %d = %+v, want %+v", step, i, got[i], want[i])
				}
			}
			if fl.Runs() != len(want) {
				t.Fatalf("step %d: Runs() = %d, want %d", step, fl.Runs(), len(want))
			}
			if fl.bySize != nil && fl.bySize.Len() != len(want) {
				t.Fatalf("step %d: size index holds %d runs, want %d", step, fl.bySize.Len(), len(want))
			}
		}
	}
}

// TestSteadySizeAllocatesNothing: once the map's run count stops growing,
// carving space out and freeing it back (coalescing) reuses the treap's
// and the size index's recycled node slots, so the slab stops growing.
func TestSteadySizeAllocatesNothing(t *testing.T) {
	for _, mode := range []struct {
		name string
		pick func(fl *T, n int64) (Run, bool)
	}{
		{"first-fit", (*T).FirstFit},
		{"best-fit", (*T).BestFit},
	} {
		fl := fragmented(1024)
		slab := len(fl.nodes)
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			need := int64(1 + i%9)
			i++
			r, ok := mode.pick(fl, need)
			if !ok {
				t.Fatal("no fit")
			}
			// Carve the run's middle (splitting it in two), then its tail.
			for _, at := range []int64{r.Addr + (r.Len-need)/2, r.Addr + r.Len - need} {
				fl.Alloc(at, need)
				fl.Insert(at, need)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Alloc+Insert cycle: %v allocs, want 0", mode.name, allocs)
		}
		// A middle carve holds one extra run until its Insert coalesces.
		if len(fl.nodes) > slab+1 {
			t.Fatalf("%s: slab grew from %d to %d slots; removed runs' slots are not reused",
				mode.name, slab, len(fl.nodes))
		}
	}
}

func BenchmarkFirstFit(b *testing.B) {
	fl := New()
	rng := rand.New(rand.NewSource(3))
	// Build a fragmented map of ~10k runs.
	for i := int64(0); i < 10000; i++ {
		fl.Insert(i*20, int64(rng.Intn(10)+1))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fl.FirstFit(int64(rng.Intn(10) + 1))
	}
}
