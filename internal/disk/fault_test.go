package disk

import (
	"math"
	"testing"

	"rofs/internal/sim"
	"rofs/internal/units"
)

// raid5TestConfig is a small RAID5 array for fault tests.
func raid5TestConfig(ndisks int) Config {
	g := WrenIV()
	g.Cylinders = 50
	return Config{
		Geometry:        g,
		NDisks:          ndisks,
		Layout:          RAID5,
		UnitBytes:       1 * units.KB,
		StripeUnitBytes: 24 * units.KB,
	}
}

// TestRebuildCompletesWithoutTraffic drives a failure + hot-spare rebuild
// on an idle array: the rebuild must reconstruct every usable byte of the
// failed drive and heal the array.
func TestRebuildCompletesWithoutTraffic(t *testing.T) {
	eng := &sim.Engine{}
	s, err := New(raid5TestConfig(4), eng)
	if err != nil {
		t.Fatal(err)
	}
	var events []FaultEvent
	if err := s.ArmFaults(FaultConfig{
		Rebuild:    true,
		ChunkBytes: 256 * units.KB,
		OnEvent:    func(ev FaultEvent) { events = append(events, ev) },
	}); err != nil {
		t.Fatal(err)
	}
	eng.At(1000, func(now float64) {
		if err := s.FailDriveNow(1, now); err != nil {
			t.Errorf("FailDriveNow: %v", err)
		}
	})
	eng.Run(10 * 60 * 60 * 1000) // 10 simulated hours: plenty
	if s.Degraded() {
		st := s.FaultStats(eng.Now())
		t.Fatalf("array still degraded after idle rebuild: rebuilt %d bytes of %d, events %v",
			st.RebuildBytes, s.usablePerDrive, events)
	}
	st := s.FaultStats(eng.Now())
	if st.RebuildBytes != s.usablePerDrive {
		t.Errorf("rebuilt %d bytes, want the full per-drive span %d", st.RebuildBytes, s.usablePerDrive)
	}
	if len(events) != 3 {
		t.Fatalf("want drive-failed, rebuild-started, rebuild-done, got %v", events)
	}
	for i, want := range []FaultEventKind{EventDriveFailed, EventRebuildStarted, EventRebuildDone} {
		if events[i].Kind != want {
			t.Errorf("event %d = %v, want %v", i, events[i].Kind, want)
		}
	}
	if st.DegradedMS <= 0 {
		t.Errorf("degraded time %g, want > 0", st.DegradedMS)
	}
}

// TestRebuildThrottle checks that a pause between chunks slows the rebuild
// down.
func TestRebuildThrottle(t *testing.T) {
	run := func(pauseMS float64) float64 {
		eng := &sim.Engine{}
		s, err := New(raid5TestConfig(4), eng)
		if err != nil {
			t.Fatal(err)
		}
		var doneMS float64
		if err := s.ArmFaults(FaultConfig{
			Rebuild:    true,
			ChunkBytes: 512 * units.KB,
			PauseMS:    pauseMS,
			OnEvent: func(ev FaultEvent) {
				if ev.Kind == EventRebuildDone {
					doneMS = ev.TimeMS
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
		eng.At(0, func(now float64) { s.FailDriveNow(0, now) })
		eng.Run(100 * 60 * 60 * 1000)
		if doneMS == 0 {
			t.Fatal("rebuild never completed")
		}
		return doneMS
	}
	fast, slow := run(0), run(50)
	if slow <= fast {
		t.Errorf("throttled rebuild finished at %g ms, unthrottled at %g ms; want slower", slow, fast)
	}
}

// TestMidRunFailureFailsQueuedRequests fails a drive while requests are
// queued on it: every affected request must complete via its Fail path,
// and no throughput is credited for failed requests.
func TestMidRunFailureFailsQueuedRequests(t *testing.T) {
	eng := &sim.Engine{}
	s, err := New(raid5TestConfig(4), eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ArmFaults(FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	var done, failed int
	// Saturate the array with small scattered reads so some land queued
	// on drive 0, then fail it almost immediately.
	for i := 0; i < 64; i++ {
		req := &Request{
			Runs:  []Run{{Start: int64(i) * 64, Len: 8}},
			Done:  func(float64) { done++ },
			Fail:  func(float64) { failed++ },
			Write: false,
		}
		s.Submit(req)
	}
	eng.At(0.1, func(now float64) { s.FailDriveNow(0, now) })
	eng.Run(60 * 1000)
	if done+failed != 64 {
		t.Fatalf("done %d + failed %d != 64 submitted", done, failed)
	}
	if failed == 0 {
		t.Error("no request failed despite a mid-run drive failure")
	}
	if s.Requests() != int64(done) {
		t.Errorf("Requests() = %d, want %d (failed requests must not be credited)", s.Requests(), done)
	}
}

// TestTransientErrorsAreDeterministic runs the same seeded transient-error
// traffic twice and expects identical outcomes.
func TestTransientErrorsAreDeterministic(t *testing.T) {
	run := func() (int, int, int64) {
		eng := &sim.Engine{}
		s, err := New(raid5TestConfig(4), eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ArmFaults(FaultConfig{RNG: sim.NewRNG(7), TransientProb: 0.2}); err != nil {
			t.Fatal(err)
		}
		var done, failed int
		for i := 0; i < 128; i++ {
			s.Submit(&Request{
				Runs: []Run{{Start: int64(i) * 32, Len: 16}},
				Done: func(float64) { done++ },
				Fail: func(float64) { failed++ },
			})
		}
		eng.Run(60 * 1000)
		return done, failed, s.FaultStats(eng.Now()).TransientErrors
	}
	d1, f1, t1 := run()
	d2, f2, t2 := run()
	if d1 != d2 || f1 != f2 || t1 != t2 {
		t.Errorf("seeded runs diverged: (%d,%d,%d) vs (%d,%d,%d)", d1, f1, t1, d2, f2, t2)
	}
	if f1 == 0 || t1 == 0 {
		t.Errorf("no transient errors at probability 0.2: failed=%d errors=%d", f1, t1)
	}
}

// TestFailDriveNowRequiresRAID5 checks layout validation.
func TestFailDriveNowRequiresRAID5(t *testing.T) {
	eng := &sim.Engine{}
	cfg := raid5TestConfig(4)
	cfg.Layout = Striped
	s, err := New(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ArmFaults(FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDriveNow(0, 0); err == nil {
		t.Error("FailDriveNow on a striped array should fail")
	}
}

// TestFailDriveNowFlushThenTraffic fails a drive while segments are
// queued on it, then keeps the array busy: the flush must leave nothing
// of the old queue behind, later traffic runs degraded to completion, and
// the spare's rebuild writes queue and complete on the flushed slot.
func TestFailDriveNowFlushThenTraffic(t *testing.T) {
	eng := &sim.Engine{}
	s, err := New(raid5TestConfig(4), eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ArmFaults(FaultConfig{Rebuild: true, SpareDelayMS: 50, ChunkBytes: 240 * units.KB}); err != nil {
		t.Fatal(err)
	}
	var done, failed, lateFailed int
	submit := func(i int, write bool) {
		s.Submit(&Request{
			Runs:  []Run{{Start: int64(i*37%200) * 24, Len: 8}},
			Write: write,
			Done:  func(float64) { done++ },
			Fail: func(float64) {
				failed++
				if i >= 64 {
					lateFailed++
				}
			},
		})
	}
	for i := 0; i < 64; i++ {
		submit(i, i%3 == 0)
	}
	queued := s.Stats()[0].QueueLen
	if queued < 2 {
		t.Fatalf("drive 0 holds %d segments before the failure, want a queue", queued)
	}
	eng.At(0.1, func(now float64) {
		if err := s.FailDriveNow(0, now); err != nil {
			t.Error(err)
		}
		if got := s.Stats()[0].QueueLen; got != 1 {
			t.Errorf("drive 0 holds %d segments after the flush, want only the one in service", got)
		}
		for i := 64; i < 128; i++ {
			submit(i, i%3 == 0)
		}
	})
	eng.Run(math.Inf(1))
	if done+failed != 128 {
		t.Fatalf("done %d + failed %d != 128 submitted", done, failed)
	}
	if failed == 0 || lateFailed != 0 {
		t.Fatalf("%d requests failed, %d of them after the failure: want some of the first 64 and none after",
			failed, lateFailed)
	}
	fs := s.FaultStats(eng.Now())
	if fs.DriveFailures != 1 || fs.RebuildBytes != s.usablePerDrive || fs.Degraded || fs.Rebuilding {
		t.Fatalf("fault stats %+v: want one failure and a finished rebuild of %d bytes", fs, s.usablePerDrive)
	}
	for i, st := range s.Stats() {
		if st.QueueLen != 0 {
			t.Errorf("drive %d still holds %d segments", i, st.QueueLen)
		}
	}
}
