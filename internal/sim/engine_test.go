package sim

import (
	"math"
	"testing"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	var e Engine
	var order []int
	e.At(30, func(float64) { order = append(order, 3) })
	e.At(10, func(float64) { order = append(order, 1) })
	e.At(20, func(float64) { order = append(order, 2) })
	end := e.Run(math.Inf(1))
	if end != 30 {
		t.Fatalf("end time = %g", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order %v", order)
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired = %d", e.Fired())
	}
}

func TestEngineTiesBreakBySchedulingOrder(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(float64) { order = append(order, i) })
	}
	e.Run(math.Inf(1))
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order %v", order)
		}
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	var e Engine
	var times []float64
	var chain Handler
	chain = func(now float64) {
		times = append(times, now)
		if now < 50 {
			e.After(10, chain)
		}
	}
	e.At(10, chain)
	e.Run(math.Inf(1))
	want := []float64{10, 20, 30, 40, 50}
	if len(times) != len(want) {
		t.Fatalf("times %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times %v, want %v", times, want)
		}
	}
}

func TestEngineHorizon(t *testing.T) {
	var e Engine
	fired := 0
	e.At(10, func(float64) { fired++ })
	e.At(100, func(float64) { fired++ })
	end := e.Run(50)
	if fired != 1 {
		t.Fatalf("fired %d events before horizon", fired)
	}
	if end != 50 {
		t.Fatalf("clock at %g, want horizon 50", end)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	// Resuming with a later horizon fires the remaining event.
	end = e.Run(math.Inf(1))
	if fired != 2 || end != 100 {
		t.Fatalf("resume: fired=%d end=%g", fired, end)
	}
}

func TestEngineStop(t *testing.T) {
	var e Engine
	fired := 0
	e.At(1, func(float64) { fired++; e.Stop() })
	e.At(2, func(float64) { fired++ })
	e.Run(math.Inf(1))
	if fired != 1 {
		t.Fatalf("Stop did not halt the loop: fired=%d", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after stop", e.Pending())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(10, func(now float64) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(now-1, func(float64) {})
	})
	e.Run(math.Inf(1))
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func(float64) {})
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []float64 {
		var e Engine
		g := NewRNG(99)
		var times []float64
		var chain Handler
		chain = func(now float64) {
			times = append(times, now)
			if len(times) < 100 {
				e.After(g.Exp(5), chain)
			}
		}
		e.At(0, chain)
		e.Run(math.Inf(1))
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestRunRejectsNaNHorizon(t *testing.T) {
	var e Engine
	e.At(5, func(float64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Run(NaN) did not panic")
		}
		if e.Pending() != 1 {
			t.Fatal("Run(NaN) consumed events")
		}
	}()
	// NaN compares false against everything, so an unguarded horizon
	// would silently drain the whole queue.
	e.Run(math.NaN())
}

func TestRunUntilAdvancesClockOnDrain(t *testing.T) {
	var e Engine
	fired := 0
	e.At(10, func(float64) { fired++ })
	// Run leaves the clock at the last event when the queue drains;
	// RunUntil must land exactly on the boundary regardless.
	end := e.RunUntil(50)
	if fired != 1 {
		t.Fatalf("fired %d events, want 1", fired)
	}
	if end != 50 || e.Now() != 50 {
		t.Fatalf("clock at %g, want boundary 50", e.Now())
	}
	// An empty window still moves the clock.
	if end = e.RunUntil(75); end != 75 {
		t.Fatalf("empty window: clock at %g, want 75", end)
	}
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	var e Engine
	fired := 0
	e.At(50, func(float64) { fired++ })
	e.At(50.5, func(float64) { fired++ })
	if end := e.RunUntil(50); end != 50 || fired != 1 {
		t.Fatalf("boundary event: fired=%d end=%g, want 1 at 50", fired, end)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the post-boundary event queued", e.Pending())
	}
	if end := e.RunUntil(60); end != 60 || fired != 2 {
		t.Fatalf("next window: fired=%d end=%g", fired, end)
	}
}

func TestRunUntilStopExitsEarly(t *testing.T) {
	var e Engine
	fired := 0
	e.At(10, func(float64) { fired++; e.Stop() })
	e.At(20, func(float64) { fired++ })
	if end := e.RunUntil(100); end != 10 || fired != 1 {
		t.Fatalf("Stop: fired=%d end=%g, want 1 at 10", fired, end)
	}
	// A later RunUntil resumes past the stop.
	if end := e.RunUntil(100); end != 100 || fired != 2 {
		t.Fatalf("resume: fired=%d end=%g", fired, end)
	}
}

func TestRunUntilMatchesRunSchedule(t *testing.T) {
	// The same workload driven in one Run call and in fixed windows must
	// fire the identical event sequence — windowing is invisible to
	// handlers.
	drive := func(windowed bool) []float64 {
		var e Engine
		var log []float64
		var chain Handler
		n := 0
		chain = func(now float64) {
			log = append(log, now)
			if n++; n < 40 {
				e.After(7.3, chain)
			}
		}
		e.At(1, chain)
		if windowed {
			for b := 25.0; e.Pending() > 0; b += 25 {
				e.RunUntil(b)
			}
		} else {
			e.Run(1e9)
		}
		return log
	}
	one, win := drive(false), drive(true)
	if len(one) != len(win) {
		t.Fatalf("fired %d vs %d events", len(one), len(win))
	}
	for i := range one {
		if one[i] != win[i] {
			t.Fatalf("event %d at %g (windowed) vs %g (single run)", i, win[i], one[i])
		}
	}
}

func TestRunUntilRejectsBackwardHorizon(t *testing.T) {
	var e Engine
	e.At(10, func(float64) {})
	e.RunUntil(50)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil into the past did not panic")
		}
	}()
	e.RunUntil(25)
}

// TestRunRejectsBackwardHorizon: a horizon before now would move the
// clock back, and events could then be scheduled in the past.
func TestRunRejectsBackwardHorizon(t *testing.T) {
	var e Engine
	fired := false
	e.At(80, func(float64) { fired = true })
	e.Run(50)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run into the past did not panic")
			}
		}()
		e.Run(20)
	}()
	if e.Now() != 50 || fired {
		t.Fatalf("clock at %g, fired %v after a rejected Run(20); want 50, false", e.Now(), fired)
	}
	// The horizon may stay where it is.
	if end := e.Run(50); end != 50 {
		t.Fatalf("Run(now) moved the clock to %g", end)
	}
}

// TestNaNSchedulingPanics: a NaN firing time has no place in the heap's
// order, through At or After.
func TestNaNSchedulingPanics(t *testing.T) {
	for name, schedule := range map[string]func(e *Engine){
		"At":    func(e *Engine) { e.At(math.NaN(), func(float64) {}) },
		"After": func(e *Engine) { e.After(math.NaN(), func(float64) {}) },
	} {
		t.Run(name, func(t *testing.T) {
			var e Engine
			defer func() {
				if recover() == nil {
					t.Fatalf("%s(NaN) did not panic", name)
				}
				if e.Pending() != 0 {
					t.Fatalf("%s(NaN) queued an event", name)
				}
			}()
			schedule(&e)
		})
	}
}

// TestNegativeZeroFiresAsZero: −0 is scheduled as +0, so it orders with
// +0 by scheduling order and the clock never reads −0.
func TestNegativeZeroFiresAsZero(t *testing.T) {
	var e Engine
	var order []int
	e.At(0, func(float64) { order = append(order, 0) })
	e.At(math.Copysign(0, -1), func(now float64) {
		if math.Signbit(now) {
			t.Error("event scheduled at -0 fired at -0")
		}
		order = append(order, 1)
	})
	e.At(math.SmallestNonzeroFloat64, func(float64) { order = append(order, 2) })
	e.Run(math.Inf(1))
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order %v, want [0 1 2]", order)
	}
	if math.Signbit(e.Now()) {
		t.Fatal("clock reads -0")
	}
}
