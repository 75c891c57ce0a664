package freelist

import "testing"

// FuzzOps drives the free-run map with arbitrary byte scripts: every two
// bytes encode one operation. An op byte with bit 7 set frees; otherwise
// bit 6 picks first-fit (set) or best-fit (clear), so a script can run
// first-fit allocations and frees for a while before its first best-fit
// builds the size index. Checked after every step: each fit matches the
// reference bitmap's, the free count matches, and no operation panics on
// valid input.
func FuzzOps(f *testing.F) {
	f.Add([]byte{0x01, 0x10, 0x81, 0x20})
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x00, 0x42, 0x42})
	f.Add([]byte{0x43, 0x00, 0x43, 0x00, 0x43, 0x00, 0x83, 0x04, 0x01, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		const space = 256
		fl := New()
		free := make([]bool, space)
		fl.Insert(0, space)
		for i := range free {
			free[i] = true
		}
		refFree := func() int64 {
			var n int64
			for _, b := range free {
				if b {
					n++
				}
			}
			return n
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			n := int64(op&0x0F) + 1
			if op&0x80 == 0 {
				var r Run
				var ok bool
				best := op&0x40 == 0
				if best {
					r, ok = fl.BestFit(n)
				} else {
					r, ok = fl.FirstFit(n)
				}
				if want, wok := refFit(free, n, best); ok != wok || ok && r != want {
					t.Fatalf("step %d: fit(%d, best=%v) = %+v,%v, reference %+v,%v",
						i, n, best, r, ok, want, wok)
				}
				if !ok {
					continue
				}
				fl.Alloc(r.Addr, n)
				for j := r.Addr; j < r.Addr+n; j++ {
					free[j] = false
				}
			} else {
				// Free a run of allocated units starting near arg.
				at := int(arg) % space
				end := at
				for end < space && !free[end] && int64(end-at) < n {
					end++
				}
				if end > at {
					fl.Insert(int64(at), int64(end-at))
					for j := at; j < end; j++ {
						free[j] = true
					}
				}
			}
			if fl.FreeUnits() != refFree() {
				t.Fatalf("step %d: free count %d != reference %d", i, fl.FreeUnits(), refFree())
			}
		}
		// Final structural pass: maximal, ordered runs.
		prevEnd := int64(-2)
		fl.Ascend(func(r Run) bool {
			if r.Addr <= prevEnd || r.Len <= 0 {
				t.Fatalf("non-maximal or disordered run %+v after end %d", r, prevEnd)
			}
			prevEnd = r.Addr + r.Len
			return true
		})
	})
}

// refRuns lists the maximal runs of a bitmap of free units in address
// order.
func refRuns(free []bool) []Run {
	var runs []Run
	for i := 0; i < len(free); {
		if !free[i] {
			i++
			continue
		}
		j := i
		for j < len(free) && free[j] {
			j++
		}
		runs = append(runs, Run{int64(i), int64(j - i)})
		i = j
	}
	return runs
}

// refFit is the reference first-fit or best-fit over a bitmap of free
// units: the lowest-addressed run, or the shortest (lowest address on
// ties), of at least n free units.
func refFit(free []bool, n int64, best bool) (Run, bool) {
	var found Run
	ok := false
	for _, r := range refRuns(free) {
		if r.Len < n {
			continue
		}
		if !best {
			return r, true
		}
		if !ok || r.Len < found.Len {
			found, ok = r, true
		}
	}
	return found, ok
}
