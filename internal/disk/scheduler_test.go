package disk

import (
	"math"
	"slices"
	"testing"

	"rofs/internal/units"
)

func TestSSTFServesNearestFirst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 1
	cfg.Scheduler = SSTF
	s, eng := newSys(t, cfg)
	g := cfg.Geometry
	cylUnits := g.CylinderBytes() / cfg.UnitBytes

	var order []int
	mk := func(id int, cyl int64) *Request {
		return &Request{
			Runs: []Run{{cyl * cylUnits, 1}},
			Done: func(float64) { order = append(order, id) },
		}
	}
	// While the drive is busy with the first request (cyl 0), queue a far
	// request, then a near one: SSTF serves the near one first.
	s.Submit(mk(1, 0))
	s.Submit(mk(2, 1200))
	s.Submit(mk(3, 10))
	eng.Run(math.Inf(1))
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 2 {
		t.Fatalf("SSTF order %v, want [1 3 2]", order)
	}
}

func TestFCFSPreservesArrivalOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 1
	cfg.Scheduler = FCFS
	s, eng := newSys(t, cfg)
	g := cfg.Geometry
	cylUnits := g.CylinderBytes() / cfg.UnitBytes

	var order []int
	mk := func(id int, cyl int64) *Request {
		return &Request{
			Runs: []Run{{cyl * cylUnits, 1}},
			Done: func(float64) { order = append(order, id) },
		}
	}
	s.Submit(mk(1, 0))
	s.Submit(mk(2, 1200))
	s.Submit(mk(3, 10))
	eng.Run(math.Inf(1))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("FCFS order %v, want [1 2 3]", order)
	}
}

func TestSSTFTiesBreakFIFO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 1
	s, eng := newSys(t, cfg) // default scheduler is SSTF
	var order []int
	mk := func(id int) *Request {
		return &Request{
			Runs: []Run{{0, 1}},
			Done: func(float64) { order = append(order, id) },
		}
	}
	s.Submit(mk(1))
	s.Submit(mk(2))
	s.Submit(mk(3))
	eng.Run(math.Inf(1))
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("tie order %v", order)
	}
}

func TestSCANSweepsInOneDirection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 1
	cfg.Scheduler = SCAN
	s, eng := newSys(t, cfg)
	cylUnits := cfg.Geometry.CylinderBytes() / cfg.UnitBytes
	var order []int
	mk := func(id int, cyl int64) *Request {
		return &Request{
			Runs: []Run{{cyl * cylUnits, 1}},
			Done: func(float64) { order = append(order, id) },
		}
	}
	// Busy at cyl 0; queue 800, 400, 1200, 100: the upward sweep serves
	// 100, 400, 800, 1200 in cylinder order.
	s.Submit(mk(0, 0))
	s.Submit(mk(1, 800))
	s.Submit(mk(2, 400))
	s.Submit(mk(3, 1200))
	s.Submit(mk(4, 100))
	eng.Run(math.Inf(1))
	want := []int{0, 4, 2, 1, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SCAN order %v, want %v", order, want)
		}
	}
}

func TestSCANReversesWhenExhausted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 1
	cfg.Scheduler = SCAN
	s, eng := newSys(t, cfg)
	cylUnits := cfg.Geometry.CylinderBytes() / cfg.UnitBytes
	var order []int
	mk := func(id int, cyl int64) *Request {
		return &Request{
			Runs: []Run{{cyl * cylUnits, 1}},
			Done: func(float64) { order = append(order, id) },
		}
	}
	// Start at cyl 500 (first request seeks there), then only lower
	// cylinders remain: the elevator must reverse and serve 300, 100.
	s.Submit(mk(0, 500))
	s.Submit(mk(1, 300))
	s.Submit(mk(2, 100))
	eng.Run(math.Inf(1))
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SCAN reverse order %v, want %v", order, want)
		}
	}
}

func TestSSTFReducesTotalServiceTime(t *testing.T) {
	// A batch of scattered requests completes sooner under SSTF than FCFS.
	run := func(sched Scheduler) float64 {
		cfg := DefaultConfig()
		cfg.NDisks = 1
		cfg.Scheduler = sched
		s, eng := newSys(t, cfg)
		cylUnits := cfg.Geometry.CylinderBytes() / cfg.UnitBytes
		var last float64
		for _, cyl := range []int64{0, 1500, 100, 1400, 200, 1300, 300} {
			s.Submit(&Request{
				Runs: []Run{{cyl * cylUnits, 8 * units.KB / cfg.UnitBytes}},
				Done: func(now float64) { last = now },
			})
		}
		eng.Run(math.Inf(1))
		return last
	}
	fcfs, sstf := run(FCFS), run(SSTF)
	if sstf >= fcfs {
		t.Fatalf("SSTF batch (%.1f ms) not faster than FCFS (%.1f ms)", sstf, fcfs)
	}
}

// cylReq builds a one-unit request at the start of a track on a
// single-drive array, recording its id in *order when it completes.
func cylReq(cfg Config, order *[]int, id int, cyl, track int64) *Request {
	g := cfg.Geometry
	at := (cyl*g.CylinderBytes() + track*g.BytesPerTrack) / cfg.UnitBytes
	return &Request{
		Runs: []Run{{at, 1}},
		Done: func(float64) { *order = append(*order, id) },
	}
}

// TestSSTFEquidistantTiesBreakByArrival pins SSTF's tie rule across the
// head: with the head at cylinder 500 and one segment 100 cylinders
// below it, one 100 above, the earlier arrival is served first, in
// either submission order.
func TestSSTFEquidistantTiesBreakByArrival(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first int64 // cylinder submitted first
		want  []int
	}{
		{"below-first", 400, []int{0, 1, 2}},
		{"above-first", 600, []int{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NDisks = 1
			s, eng := newSys(t, cfg)
			var order []int
			s.Submit(cylReq(cfg, &order, 0, 500, 0))
			s.Submit(cylReq(cfg, &order, 1, tc.first, 0))
			s.Submit(cylReq(cfg, &order, 2, 1000-tc.first, 0))
			eng.Run(math.Inf(1))
			if !slices.Equal(order, tc.want) {
				t.Fatalf("SSTF order %v, want %v", order, tc.want)
			}
		})
	}
}

// TestSCANEqualDistancesAheadBreakByArrival pins SCAN's tie rule: with
// two segments on the same cylinder ahead of the head, in each sweep
// direction, the earlier arrival is served first, in either submission
// order. The elevator starts sweeping down.
func TestSCANEqualDistancesAheadBreakByArrival(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tracks [2]int64 // tracks of ids 1 and 2 (cyl 300), 3 and 4 (cyl 700)
		want   []int
	}{
		{"low-track-first", [2]int64{1, 5}, []int{0, 1, 2, 3, 4}},
		{"high-track-first", [2]int64{5, 1}, []int{0, 1, 2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NDisks = 1
			cfg.Scheduler = SCAN
			s, eng := newSys(t, cfg)
			var order []int
			s.Submit(cylReq(cfg, &order, 0, 500, 0))
			s.Submit(cylReq(cfg, &order, 3, 700, tc.tracks[0]))
			s.Submit(cylReq(cfg, &order, 1, 300, tc.tracks[0]))
			s.Submit(cylReq(cfg, &order, 4, 700, tc.tracks[1]))
			s.Submit(cylReq(cfg, &order, 2, 300, tc.tracks[1]))
			eng.Run(math.Inf(1))
			if !slices.Equal(order, tc.want) {
				t.Fatalf("SCAN order %v, want %v", order, tc.want)
			}
		})
	}
}
