// Package sim provides the event-driven simulation engine and the seeded
// random distributions behind the paper's stochastic workload model (§2).
//
// The engine is a classic discrete-event loop: a priority queue of events
// ordered by simulated time (milliseconds, float64), a clock that jumps to
// each event's firing time, and a run loop with pluggable stop conditions.
// Everything is deterministic for a fixed seed: ties in firing time are
// broken by scheduling order.
//
// The queue is a value-typed 4-ary min-heap ordered by (time, seq). Events
// are stored by value in one backing array, so scheduling an event performs
// no per-event heap allocation and firing one performs no interface boxing
// — the steady-state event loop allocates nothing. Because (time, seq) is a
// total order, pop order is independent of heap shape and arity: results
// are byte-identical to the earlier container/heap implementation.
//
// The clock never runs backwards and never holds NaN: At rejects NaN and
// past times, Run and RunUntil reject NaN and past horizons, and a −0
// firing time is stored as +0. Every firing time is therefore +0, positive
// or +Inf, where the IEEE 754 bit patterns, read as unsigned integers,
// order exactly as the times do; the heap compares those bits and the
// sequence number as one 128-bit key.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Handler is an event callback. It runs with the clock set to the event's
// firing time and may schedule further events.
type Handler func(now float64)

type event struct {
	at  uint64 // math.Float64bits of the firing time, which is never negative
	seq uint64
	fn  Handler
}

// before orders events by firing time, ties broken by scheduling order:
// it returns 1 when a precedes b, else 0. a precedes b when the 128-bit
// number at:seq of a is below b's, which is when a−b borrows out of the
// top word. It defines a total order, so the heap's pop sequence is
// unique.
func before(a, b *event) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return int(borrow)
}

// time returns the event's firing time.
func (ev *event) time() float64 { return math.Float64frombits(ev.at) }

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now        float64
	seq        uint64
	queue      []event // 4-ary min-heap by (at, seq)
	stopped    bool
	fired      uint64
	maxPending int
}

// Now returns the current simulated time in milliseconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events fired so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return len(e.queue) }

// MaxPending returns the deepest the event heap has ever been — the
// engine's high-water mark, surfaced by the metrics registry.
func (e *Engine) MaxPending() int { return e.maxPending }

// At schedules fn to fire at absolute simulated time at. Scheduling in the
// past or at NaN panics — it always indicates a modelling bug. A −0 time
// is scheduled as +0.
func (e *Engine) At(at float64, fn Handler) {
	if !(at >= e.now) {
		if math.IsNaN(at) {
			panic("sim: event scheduled at NaN")
		}
		panic(fmt.Sprintf("sim: event scheduled at %.3f before now %.3f", at, e.now))
	}
	if at == 0 {
		at = 0 // −0 to +0: its bit pattern would order after every time
	}
	e.seq++
	e.push(event{at: math.Float64bits(at), seq: e.seq, fn: fn})
}

// After schedules fn to fire delay milliseconds from now.
func (e *Engine) After(delay float64, fn Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %.3f", delay))
	}
	e.At(e.now+delay, fn)
}

// push appends ev and sifts it up. The loop moves parents down into the
// hole rather than swapping, so each level costs one copy.
func (e *Engine) push(ev event) {
	q := append(e.queue, ev)
	if len(q) > e.maxPending {
		e.maxPending = len(q)
	}
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if before(&ev, &q[p]) == 0 {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	e.queue = q
}

// pop removes and returns the minimum event, zeroing the vacated slot so
// the backing array does not pin the fired handler.
func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	e.queue = q
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			hi := c + 4
			if hi > n {
				hi = n
			}
			for j := c + 1; j < hi; j++ {
				m += (j - m) * before(&q[j], &q[m]) // the earlier child, without a branch
			}
			if before(&q[m], &last) == 0 {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	return top
}

// Stop makes Run return after the currently firing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run fires events in time order until the queue drains, Stop is called,
// or the clock passes untilMS (exclusive; pass +Inf for no limit). It
// returns the simulated time at exit. A NaN horizon panics — every
// comparison against NaN is false, so the horizon would silently never
// bound the run; like past scheduling, it always indicates a modelling
// bug. So does a horizon before now, which would move the clock back and
// let events be scheduled in the past.
func (e *Engine) Run(untilMS float64) float64 {
	if math.IsNaN(untilMS) {
		panic("sim: Run horizon is NaN")
	}
	if untilMS < e.now {
		panic(fmt.Sprintf("sim: Run horizon %.3f before now %.3f", untilMS, e.now))
	}
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].time() > untilMS {
			// Leave the event queued; advance the clock to the horizon so
			// repeated Run calls with growing horizons behave sensibly.
			e.now = untilMS
			return e.now
		}
		ev := e.pop()
		e.now = ev.time()
		e.fired++
		ev.fn(e.now)
	}
	return e.now
}

// RunUntil fires events in time order through untilMS inclusive and then
// advances the clock to exactly untilMS, even if the queue drained earlier
// or never held an event in the window. It is the windowed-run entry point
// for conservative-lookahead parallel execution: a coordinator advances a
// set of engines window by window, and every engine must land on the same
// boundary so cross-engine exchanges (routed arrivals, load snapshots,
// metrics samples) happen at one well-defined simulated time. Stop still
// exits immediately, leaving the clock at the stopping event (the caller
// observes the early exit via the return value). Like Run, a NaN horizon
// panics; so does a horizon before now — a coordinator must only move
// time forward.
func (e *Engine) RunUntil(untilMS float64) float64 {
	if math.IsNaN(untilMS) {
		panic("sim: RunUntil horizon is NaN")
	}
	if untilMS < e.now {
		panic(fmt.Sprintf("sim: RunUntil horizon %.3f before now %.3f", untilMS, e.now))
	}
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].time() > untilMS {
			break
		}
		ev := e.pop()
		e.now = ev.time()
		e.fired++
		ev.fn(e.now)
	}
	if !e.stopped {
		e.now = untilMS
	}
	return e.now
}
