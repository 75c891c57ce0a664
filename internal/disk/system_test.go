package disk

import (
	"math"
	"math/rand"
	"testing"

	"rofs/internal/sim"
	"rofs/internal/units"
)

// newSys builds a system over a fresh engine, failing the test on error.
func newSys(t *testing.T, cfg Config) (*System, *sim.Engine) {
	t.Helper()
	eng := &sim.Engine{}
	s, err := New(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

// submitAndRun issues a synchronous request and returns its completion time.
func submitAndRun(t *testing.T, s *System, eng *sim.Engine, req *Request) float64 {
	t.Helper()
	var done float64 = -1
	req.Done = func(now float64) { done = now }
	s.Submit(req)
	eng.Run(math.Inf(1))
	if done < 0 {
		t.Fatal("request never completed")
	}
	return done
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NDisks = 0 },
		func(c *Config) { c.UnitBytes = 0 },
		func(c *Config) { c.StripeUnitBytes = 512 }, // < unit
		func(c *Config) { c.StripeUnitBytes = 1536 },
		func(c *Config) { c.Layout = Mirrored; c.NDisks = 7 },
		func(c *Config) { c.Layout = RAID5; c.NDisks = 1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
}

func TestCapacity(t *testing.T) {
	s, _ := newSys(t, DefaultConfig())
	want := 8 * WrenIV().Capacity()
	if s.CapacityBytes() != want {
		t.Fatalf("CapacityBytes = %d, want %d", s.CapacityBytes(), want)
	}
	if s.Units() != want/units.KB {
		t.Fatalf("Units = %d", s.Units())
	}
}

func TestLayoutCapacities(t *testing.T) {
	one := WrenIV().Capacity()
	for _, c := range []struct {
		layout Layout
		want   int64
	}{
		{Striped, 8 * one},
		{Mirrored, 4 * one},
		{RAID5, 7 * one},
	} {
		cfg := DefaultConfig()
		cfg.Layout = c.layout
		s, _ := newSys(t, cfg)
		if s.CapacityBytes() != c.want {
			t.Errorf("%v capacity = %d, want %d", c.layout, s.CapacityBytes(), c.want)
		}
	}
	cfg := DefaultConfig()
	cfg.Layout = ParityStriped
	s, _ := newSys(t, cfg)
	want := 7 * one // 7/8 of each disk, rounded to stripe units, times 8
	if got := s.CapacityBytes(); got > want || got < want-8*cfg.StripeUnitBytes {
		t.Errorf("parity-striped capacity = %d, want ≈%d", got, want)
	}
}

func TestSingleDiskSequentialCylinderRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 1
	s, eng := newSys(t, cfg)
	// One full cylinder from unit 0 at t=0: head starts at cylinder 0 and
	// angular position 0, so each of the 9 tracks costs exactly one
	// rotation with free head switches.
	cylUnits := WrenIV().CylinderBytes() / cfg.UnitBytes
	done := submitAndRun(t, s, eng, &Request{Runs: []Run{{0, cylUnits}}})
	want := 9 * 16.67
	if math.Abs(done-want) > 1e-6 {
		t.Fatalf("cylinder read took %g ms, want %g", done, want)
	}
}

func TestSingleDiskCylinderCrossingPenalty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 1
	s, eng := newSys(t, cfg)
	// Two full cylinders: the crossing costs a single-track seek, and the
	// phase model then waits out the rest of that rotation.
	twoCyl := 2 * WrenIV().CylinderBytes() / cfg.UnitBytes
	done := submitAndRun(t, s, eng, &Request{Runs: []Run{{0, twoCyl}}})
	want := 18*16.67 + 16.67 // 18 track rotations + one lost rotation
	if math.Abs(done-want) > 1e-6 {
		t.Fatalf("two-cylinder read took %g ms, want %g", done, want)
	}
	stats := s.Stats()
	if stats[0].Seeks != 1 {
		t.Fatalf("seeks = %d, want 1", stats[0].Seeks)
	}
}

func TestSingleDiskSeekAndRotation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 1
	s, eng := newSys(t, cfg)
	g := WrenIV()
	// Read 1 unit at the start of cylinder 100. Seek = ST + 100*SI; the
	// seek ends mid-rotation so we wait for offset 0 to come around.
	startUnit := 100 * g.CylinderBytes() / cfg.UnitBytes
	done := submitAndRun(t, s, eng, &Request{Runs: []Run{{startUnit, 1}}})
	seek := 5.5 + 100*0.032
	rotWait := 16.67 - math.Mod(seek, 16.67)
	transfer := float64(cfg.UnitBytes) / float64(g.BytesPerTrack) * 16.67
	want := seek + rotWait + transfer
	if math.Abs(done-want) > 1e-6 {
		t.Fatalf("random read took %g ms, want %g", done, want)
	}
}

func TestStripedParallelism(t *testing.T) {
	s, eng := newSys(t, DefaultConfig())
	// A full stripe row (8 × 24K) is one track on each of 8 drives: all
	// transfer in parallel, so the request takes ~one rotation, not eight.
	rowUnits := 8 * 24 * units.KB / s.UnitBytes()
	done := submitAndRun(t, s, eng, &Request{Runs: []Run{{0, rowUnits}}})
	if math.Abs(done-16.67) > 1e-6 {
		t.Fatalf("striped row read took %g ms, want one rotation", done)
	}
}

func TestStripedMappingBijection(t *testing.T) {
	cfg := Config{
		Geometry: Geometry{
			BytesPerTrack:     4 * units.KB,
			TracksPerCylinder: 2,
			Cylinders:         4,
			RotationMS:        10,
			SingleTrackSeekMS: 1,
		},
		NDisks:          4,
		Layout:          Striped,
		UnitBytes:       units.KB,
		StripeUnitBytes: 2 * units.KB,
	}
	s, _ := newSys(t, cfg)
	seen := map[[2]int64]bool{}
	var total int64
	for u := int64(0); u < s.Units(); u++ {
		segs := s.segments(&Request{Runs: []Run{{u, 1}}})
		if len(segs) != 1 {
			t.Fatalf("unit %d mapped to %d segments", u, len(segs))
		}
		sg := segs[0]
		if sg.seg.n != cfg.UnitBytes {
			t.Fatalf("unit %d mapped to %d bytes", u, sg.seg.n)
		}
		key := [2]int64{int64(sg.disk), sg.seg.start}
		if seen[key] {
			t.Fatalf("unit %d collides at disk %d offset %d", u, sg.disk, sg.seg.start)
		}
		if sg.seg.start+sg.seg.n > cfg.Geometry.Capacity() {
			t.Fatalf("unit %d maps beyond drive capacity", u)
		}
		seen[key] = true
		total++
	}
	if total*cfg.UnitBytes != s.CapacityBytes() {
		t.Fatalf("covered %d bytes of %d", total*cfg.UnitBytes, s.CapacityBytes())
	}
}

func TestStripedMergesPerDrive(t *testing.T) {
	s, _ := newSys(t, DefaultConfig())
	// 16 stripe units => 2 rows: each drive should get ONE merged segment
	// of two contiguous stripe units, not two separate ones.
	segs := s.segments(&Request{Runs: []Run{{0, 16 * 24 * units.KB / s.UnitBytes()}}})
	if len(segs) != 8 {
		t.Fatalf("got %d segments, want 8 merged", len(segs))
	}
	for _, sg := range segs {
		if sg.seg.n != 2*24*units.KB {
			t.Fatalf("segment on disk %d has %d bytes, want merged 48K", sg.disk, sg.seg.n)
		}
	}
}

func TestMirroredReadOneWriteBoth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout = Mirrored
	s, _ := newSys(t, cfg)
	one := 24 * units.KB / s.UnitBytes()
	reads := s.segments(&Request{Runs: []Run{{0, one}}})
	if len(reads) != 1 {
		t.Fatalf("mirrored read produced %d segments, want 1", len(reads))
	}
	writes := s.segments(&Request{Runs: []Run{{0, one}}, Write: true})
	if len(writes) != 2 {
		t.Fatalf("mirrored write produced %d segments, want 2", len(writes))
	}
	if writes[0].disk/2 != writes[1].disk/2 || writes[0].disk == writes[1].disk {
		t.Fatalf("mirrored write went to disks %d and %d, want a pair",
			writes[0].disk, writes[1].disk)
	}
	if writes[0].seg.start != writes[1].seg.start {
		t.Fatal("replicas at different offsets")
	}
}

func TestRAID5SmallWritePenalty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout = RAID5
	s, _ := newSys(t, cfg)
	one := 24 * units.KB / s.UnitBytes()
	segs := s.segments(&Request{Runs: []Run{{0, one}}, Write: true})
	if len(segs) != 2 {
		t.Fatalf("small RAID5 write produced %d segments, want data+parity", len(segs))
	}
	for _, sg := range segs {
		if sg.seg.extraRotations != 1 {
			t.Fatalf("small write segment missing read-modify-write rotation")
		}
		if !sg.seg.write {
			t.Fatal("segment not marked as write")
		}
	}
	if segs[0].disk == segs[1].disk {
		t.Fatal("data and parity on the same drive")
	}
}

func TestRAID5FullStripeWriteAvoidsRMW(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout = RAID5
	s, _ := newSys(t, cfg)
	rowUnits := 7 * 24 * units.KB / s.UnitBytes() // 7 data columns
	segs := s.segments(&Request{Runs: []Run{{0, rowUnits}}, Write: true})
	if len(segs) != 8 {
		t.Fatalf("full-stripe write produced %d segments, want 8", len(segs))
	}
	for _, sg := range segs {
		if sg.seg.extraRotations != 0 {
			t.Fatal("full-stripe write paid read-modify-write")
		}
	}
}

func TestRAID5ReadHasNoParityTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout = RAID5
	s, _ := newSys(t, cfg)
	segs := s.segments(&Request{Runs: []Run{{0, 7 * 24 * units.KB / s.UnitBytes()}}})
	if len(segs) != 7 {
		t.Fatalf("full-row read produced %d segments, want 7 data only", len(segs))
	}
}

func TestParityStripedFilesStayOnOneDrive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout = ParityStriped
	s, _ := newSys(t, cfg)
	// A 1M read at the start of the space touches only drive 0.
	segs := s.segments(&Request{Runs: []Run{{0, units.MB / s.UnitBytes()}}})
	for _, sg := range segs {
		if sg.disk != 0 {
			t.Fatalf("parity-striped read touched drive %d", sg.disk)
		}
	}
	// A small write adds parity traffic on a different drive.
	wsegs := s.segments(&Request{Runs: []Run{{0, 1}}, Write: true})
	if len(wsegs) != 2 {
		t.Fatalf("parity-striped write produced %d segments, want 2", len(wsegs))
	}
	if wsegs[0].disk == wsegs[1].disk {
		t.Fatal("parity landed on the data drive")
	}
}

func TestFCFSQueueing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 1
	s, eng := newSys(t, cfg)
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
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("completion order %v", order)
	}
	if s.Requests() != 3 {
		t.Fatalf("Requests = %d", s.Requests())
	}
}

func TestEmptyRequestCompletesImmediately(t *testing.T) {
	s, eng := newSys(t, DefaultConfig())
	called := false
	s.Submit(&Request{Done: func(float64) { called = true }})
	if !called {
		t.Fatal("empty request did not complete synchronously")
	}
	_ = eng
}

func TestOutOfRangePanics(t *testing.T) {
	s, _ := newSys(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range run did not panic")
		}
	}()
	s.Submit(&Request{Runs: []Run{{s.Units(), 1}}})
}

func TestTotalBytesAccounting(t *testing.T) {
	s, eng := newSys(t, DefaultConfig())
	n := 48 * units.KB / s.UnitBytes()
	submitAndRun(t, s, eng, &Request{Runs: []Run{{0, n}}})
	if s.TotalBytes() != 48*units.KB {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
}

// TestSequentialApproachesSustainedBandwidth reads a long contiguous range
// and checks the observed rate lands on the model's sustained bandwidth —
// the denominator used for every reported percentage.
func TestSequentialApproachesSustainedBandwidth(t *testing.T) {
	s, eng := newSys(t, DefaultConfig())
	total := 256 * units.MB / s.UnitBytes()
	done := submitAndRun(t, s, eng, &Request{Runs: []Run{{0, total}}})
	rate := float64(256*units.MB) / done
	if pct := 100 * rate / s.MaxBandwidth(); pct < 97 || pct > 103 {
		t.Fatalf("sequential read ran at %.1f%% of sustained bandwidth", pct)
	}
}

// TestStripedAndMirroredMatchUnitDivision checks the stripe walk against
// the per-unit division it replaces: for seeded multi-run requests on
// striped and mirrored arrays, every disk unit of every run lands at
// (idx mod columns, (idx / columns)·su + offset) with idx the unit's
// stripe-unit index, and nothing else is placed.
func TestStripedAndMirroredMatchUnitDivision(t *testing.T) {
	for _, layout := range []Layout{Striped, Mirrored} {
		cfg := DefaultConfig()
		cfg.Layout = layout
		cfg.StripeUnitBytes = 3 * cfg.UnitBytes
		s, _ := newSys(t, cfg)
		cols := int64(cfg.NDisks)
		if layout == Mirrored {
			cols /= 2
		}
		su, ub := cfg.StripeUnitBytes, cfg.UnitBytes
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			req := &Request{Write: true}
			for k := rng.Intn(3) + 1; k > 0; k-- {
				n := rng.Int63n(40) + 1
				req.Runs = append(req.Runs, Run{rng.Int63n(s.Units() - n), n})
			}
			want := map[[2]int64]int{}
			for _, r := range req.Runs {
				for u := r.Start; u < r.Start+r.Len; u++ {
					idx, off := u*ub/su, u*ub%su
					col, local := idx%cols, (idx/cols)*su+off
					if layout == Mirrored {
						want[[2]int64{2 * col, local}]++
						want[[2]int64{2*col + 1, local}]++
					} else {
						want[[2]int64{col, local}]++
					}
				}
			}
			got := map[[2]int64]int{}
			for _, sg := range s.segments(req) {
				for b := sg.seg.start; b < sg.seg.start+sg.seg.n; b += ub {
					got[[2]int64{int64(sg.disk), b}]++
				}
				s.releaseSegment(sg.seg)
			}
			if len(got) != len(want) {
				t.Fatalf("%v request %d: placed %d units, want %d", layout, i, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("%v request %d: disk %d offset %d placed %d times, want %d",
						layout, i, k[0], k[1], got[k], n)
				}
			}
		}
	}
}

// BenchmarkRequestPath is the disk request path in steady state: the
// Table 1 array (eight drives, striped, SSTF) with eight 8 KB reads always
// in flight per drive, one in service and seven queued, each completion
// submitting its stream's next read to the same drive at a seeded random
// stripe row. One op is one request: Submit, a queue wait, an SSTF pick,
// service and completion. Steady-state traffic allocates nothing: the
// segments, completion records, queues and event heap are recycled.
func BenchmarkRequestPath(b *testing.B) {
	const perDrive = 8
	cfg := DefaultConfig()
	eng := &sim.Engine{}
	s, err := New(cfg, eng)
	if err != nil {
		b.Fatal(err)
	}
	ndisks := int64(cfg.NDisks)
	suUnits := cfg.StripeUnitBytes / cfg.UnitBytes
	rows := s.Units() / suUnits / ndisks
	rng := sim.NewRNG(1)
	left := 0
	next := func(req *Request, disk int64) {
		if left == 0 {
			return
		}
		left--
		req.Runs[0] = Run{(rng.Int63n(rows)*ndisks + disk) * suUnits, 8 * units.KB / cfg.UnitBytes}
		s.Submit(req)
	}
	reqs := make([]Request, perDrive*cfg.NDisks)
	for i := range reqs {
		req, disk := &reqs[i], int64(i)%ndisks
		req.Runs = make([]Run, 1)
		req.Done = func(float64) { next(req, disk) }
	}
	run := func(requests int) {
		left = requests
		for i := range reqs {
			next(&reqs[i], int64(i)%ndisks)
		}
		eng.Run(math.Inf(1))
	}
	run(10 * len(reqs)) // grow the queues, heap and free lists first
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
