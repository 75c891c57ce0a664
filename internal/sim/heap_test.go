package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHeapStressMatchesSortedOrder drives the 4-ary heap through a random
// interleaving of pushes and pops and checks the fire order against a
// reference sort by (time, seq).
func TestHeapStressMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var e Engine
	type key struct {
		at  float64
		seq int
	}
	var scheduled []key
	var fired []key
	n := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			// Coarse times force deep seq tie-break chains.
			at := e.Now() + float64(rng.Intn(25))
			k := key{at, n}
			n++
			scheduled = append(scheduled, k)
			e.At(at, func(float64) { fired = append(fired, k) })
		}
		// Fire a random prefix by walking the horizon forward.
		e.Run(e.Now() + float64(rng.Intn(25)))
	}
	e.Run(math.Inf(1))
	sort.SliceStable(scheduled, func(i, j int) bool {
		if scheduled[i].at != scheduled[j].at {
			return scheduled[i].at < scheduled[j].at
		}
		return scheduled[i].seq < scheduled[j].seq
	})
	if len(fired) != len(scheduled) {
		t.Fatalf("fired %d of %d events", len(fired), len(scheduled))
	}
	for i := range fired {
		if fired[i] != scheduled[i] {
			t.Fatalf("fire order diverges at %d: got %v want %v", i, fired[i], scheduled[i])
		}
	}
}

// TestHorizonExactEventFires pins the boundary semantics: an event at
// exactly the horizon fires (the horizon is exclusive only beyond it).
func TestHorizonExactEventFires(t *testing.T) {
	var e Engine
	fired := 0
	e.At(50, func(float64) { fired++ })
	e.At(math.Nextafter(50, math.Inf(1)), func(float64) { fired++ })
	if end := e.Run(50); end != 50 {
		t.Fatalf("clock at %g, want 50", end)
	}
	if fired != 1 {
		t.Fatalf("fired %d events at the horizon, want exactly the at-horizon one", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
}

// TestReentrantSchedulingSameTime checks that a handler scheduling another
// event at the current time fires it within the same batch, after all
// previously scheduled same-time events (seq order).
func TestReentrantSchedulingSameTime(t *testing.T) {
	var e Engine
	var order []string
	e.At(10, func(now float64) {
		order = append(order, "a")
		e.At(now, func(float64) { order = append(order, "a-child") })
	})
	e.At(10, func(float64) { order = append(order, "b") })
	e.Run(math.Inf(1))
	want := []string{"a", "b", "a-child"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestReentrantSchedulingDeepChain checks a handler chain that reschedules
// itself at the current time for many steps — the hot-loop shape where the
// heap repeatedly shrinks and regrows within one batch.
func TestReentrantSchedulingDeepChain(t *testing.T) {
	var e Engine
	steps := 0
	var chain Handler
	chain = func(now float64) {
		steps++
		if steps < 10_000 {
			e.At(now, chain)
		}
	}
	e.At(1, chain)
	if end := e.Run(math.Inf(1)); end != 1 {
		t.Fatalf("clock moved to %g during a same-time chain", end)
	}
	if steps != 10_000 {
		t.Fatalf("chain ran %d steps", steps)
	}
}

// TestStopMidBatch checks Stop called from inside a batch of same-time
// events: the remaining events of the batch stay queued and fire on the
// next Run.
func TestStopMidBatch(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(7, func(float64) {
			order = append(order, i)
			if i == 1 {
				e.Stop()
			}
		})
	}
	e.Run(math.Inf(1))
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("pre-stop order %v", order)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after mid-batch stop", e.Pending())
	}
	// Run resumes the batch where Stop cut it.
	e.Run(math.Inf(1))
	if len(order) != 5 {
		t.Fatalf("post-resume order %v", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("batch resumed out of order: %v", order)
		}
	}
}

// TestPopReleasesHandlers guards the fire path: a fired event's slot in
// the backing array must not keep its handler — and whatever state it
// captured — alive until the array is overwritten.
func TestPopReleasesHandlers(t *testing.T) {
	var e Engine
	for i := 0; i < 64; i++ {
		e.At(float64(i), func(float64) {})
	}
	e.Run(math.Inf(1))
	backing := e.queue[:cap(e.queue)]
	for i := range backing {
		if backing[i].fn != nil {
			t.Fatalf("fired event left a handler pinned at backing slot %d", i)
		}
	}
}

// BenchmarkEngineSelfFire is the minimal hot loop: one event in flight
// rescheduling itself — the shape of a simulated user stream. Steady state
// must not allocate.
func BenchmarkEngineSelfFire(b *testing.B) {
	var e Engine
	remaining := b.N
	var fire Handler
	fire = func(float64) {
		remaining--
		if remaining > 0 {
			e.After(1, fire)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.At(0, fire)
	e.Run(math.Inf(1))
}

// BenchmarkEngineDepth256 keeps 256 concurrent event streams in the queue
// — the deep-queue shape of a full application test (20+ users × per-drive
// service completions), where heap arity matters.
func BenchmarkEngineDepth256(b *testing.B) {
	var e Engine
	const depth = 256
	remaining := b.N
	rng := NewRNG(1)
	var fire Handler
	fire = func(float64) {
		remaining--
		if remaining > 0 {
			e.After(rng.Exp(10), fire)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < depth; i++ {
		e.At(rng.Exp(10), fire)
	}
	e.Run(math.Inf(1))
}

// TestDuplicateTimesFireInSchedulingOrder pins the order of events that
// share a firing time, at zero (either sign), at an ordinary time and at
// +Inf: time first, then scheduling order, with −0 and +0 one time.
func TestDuplicateTimesFireInSchedulingOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	times := []float64{inf, 5, 0, negZero, 5, inf, negZero, 0, 5}
	var e Engine
	var fired []int
	for i, at := range times {
		i := i
		e.At(at, func(now float64) {
			if now != times[i] {
				t.Errorf("event %d fired at %v, scheduled at %v", i, now, times[i])
			}
			fired = append(fired, i)
		})
	}
	e.Run(inf)
	want := []int{2, 3, 6, 7, 1, 4, 8, 0, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}
