package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"rofs/internal/core"
	"rofs/internal/sim"
)

// This file is the fleet execution layer: per-instance engines advanced by
// a pool of worker goroutines, in two tiers.
//
// Tier 1 — embarrassingly parallel (runIndependent). A closed-loop fleet
// with metrics off has no cross-instance coupling whatsoever: each member
// serves its own user population from its own RNG stream on its own
// engine. Every engine runs to its own stop, and a single barrier merges
// the results in instance-index order.
//
// Tier 2 — conservative lookahead (runWindowed). Open-loop fleets couple
// through the coordinator (admission occupancy, routing load view, central
// latency), and metrics-on fleets couple through the shared registry. All
// engines advance in bounded simulated-time windows; the coordinator owns
// the simulated interval (t, t1] exclusively at the boundary t1 and
// exchanges everything there: the window's arrivals are admitted, routed,
// and enqueued into the target engines before the window runs; the
// window's completions are applied afterwards in merged (time, instance)
// order. The lookahead is the coupling grid itself — the router snapshot
// interval when one is configured, else Config.SyncMS, else
// defaultSyncMS — so serial and parallel schedules observe identical
// snapshots and identical admission state by construction. Worker count
// can therefore never change results, only wall-clock time.
//
// Determinism contract, in PR-6 shared-engine terms: token-bucket
// admission and snapshot-interval least-loaded routing see exactly the
// serial shared-engine schedule (refill is a pure function of arrival
// times; snapshots are only read at grid points, and every grid point is
// a barrier). Two couplings are deliberately window-quantized: bounded-
// queue releases and *fresh* (SnapshotMS=0) least-loaded counts become
// visible at the next boundary rather than mid-window. Both remain
// deterministic and identical at every worker count; SyncMS pins the
// observation grid, which is why it is part of Config.Key while
// Parallelism is not. Cross-instance ties in the completion merge (disk
// times are quantized, so ties are real) break by instance index — a
// canonical order — where the shared engine broke them by event sequence
// number, an artifact of interleaved scheduling history; the fleet golden
// was regenerated once for that switch (MeanLatencyMS, 13th digit).

// defaultSyncMS is the open-loop lookahead window when neither the router
// snapshot interval nor Config.SyncMS defines a coupling grid.
const defaultSyncMS = 100

// forEach runs fn(i) once per instance — inline when serial, else on
// min(Parallelism, N) workers claiming indices from a shared counter.
// Each instance is touched by exactly one worker, and the WaitGroup
// barrier hands ownership back to the coordinator, so instance and
// per-index state need no locks.
func (d *Deployment) forEach(fn func(i int)) {
	if d.par <= 1 {
		for i := range d.insts {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(d.par)
	for w := 0; w < d.par; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(d.insts) {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// prime fans the allocation-only initialization phase across the workers.
// Priming advances no simulated time and is instance-local; errors are
// reported in instance order whatever order the workers finish in.
func (d *Deployment) prime() error {
	errs := make([]error, len(d.insts))
	d.forEach(func(i int) { errs[i] = d.insts[i].PrimeThroughput() })
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: instance %d: %w", i, err)
		}
	}
	return nil
}

// runIndependent is tier 1: every closed-loop member runs to its own
// stabilization (or the horizon), then the early stoppers resume to the
// fleet-wide end so their users keep issuing operations until the whole
// fleet stops — exactly the shared-engine schedule, where the engine only
// stopped at the last member's stabilization tick.
func (d *Deployment) runIndependent() (float64, error) {
	horizon := d.insts[0].MaxSimMS()
	for i, in := range d.insts {
		i := i
		in.SetOnStable(func() {
			d.stableAt[i] = d.engs[i].Now()
			d.engs[i].Stop()
		})
		in.ScheduleUsers()
	}
	d.forEach(func(i int) { d.engs[i].Run(horizon) })
	if d.anyCanceled() {
		end := 0.0
		for _, e := range d.engs {
			end = math.Max(end, e.Now())
		}
		return end, nil
	}

	end := horizon
	if d.allStable() {
		end = 0
		for i := range d.stableAt {
			end = math.Max(end, d.stableAt[i])
		}
	}
	// Members that stabilized before the fleet end stopped their tick
	// chain but not their users; run them forward to the common end. The
	// member(s) that defined the end stay put: in the shared engine,
	// nothing after the final stabilization tick fired.
	d.forEach(func(i int) {
		if t := d.stableAt[i]; !math.IsNaN(t) && t < end {
			d.engs[i].RunUntil(end)
		}
	})
	return end, nil
}

// runWindowed is tier 2: the conservative-lookahead loop. Per window —
//
//  1. the control-plane engine fires the window's arrivals (open-loop),
//     admitting, routing, and enqueuing pooled dispatch events into the
//     target instance engines at the exact arrival times;
//  2. every instance engine advances to the boundary (in parallel);
//  3. the barrier applies buffered completions in merged (time, instance)
//     order — live counts, admission releases, central latency — then
//     refreshes the router snapshot and samples metrics if their grids
//     land on this boundary, and evaluates the stop conditions.
//
// Window boundaries are the union of the coupling grids (snapshot,
// metrics interval, lookahead, horizon), each kept as its own running
// accumulator so boundary times are bit-identical to the self-
// rescheduling engine ticks the shared-engine fleet used.
func (d *Deployment) runWindowed(open bool) (float64, error) {
	horizon := d.insts[0].MaxSimMS()
	n := len(d.insts)
	for i, in := range d.insts {
		i := i
		in.SetOnStable(func() { d.stableAt[i] = d.engs[i].Now() })
	}

	ll, _ := d.router.(*leastLoaded)
	snapW := 0.0
	if open && ll != nil && d.cc.SnapshotMS > 0 {
		snapW = d.cc.SnapshotMS
	}
	sampleW := 0.0
	if d.reg != nil {
		sampleW = d.reg.IntervalMS()
	}
	syncW := 0.0
	if open {
		switch {
		case d.cc.SyncMS > 0:
			syncW = d.cc.SyncMS
		case snapW > 0:
			// The router's snapshot interval is the natural lookahead: the
			// only mid-run coupling reads happen on its grid anyway.
			syncW = snapW
		default:
			syncW = defaultSyncMS
		}
	}

	if open {
		d.comps = make([][]completion, n)
		d.heads = make([]int, n)
		d.freeDisp = make([][]*dispatchEv, n)
		d.spentDisp = make([][]*dispatchEv, n)
		for i, in := range d.insts {
			i := i
			in.SetOnOpDone(func(_ *core.Instance, now, lat float64) {
				d.comps[i] = append(d.comps[i], completion{at: now, lat: lat})
			})
		}
		// The arrival source lives on its own control-plane engine so the
		// coordinator can replay each window's arrivals before the
		// instance engines run it. Seed and salt match the shared-engine
		// fleet, so the arrival sequence is unchanged.
		d.ctl = &sim.Engine{}
		src, err := core.NewArrivalSource(d.ctl, d.cfg.Seed, &d.cfg.Workload, d.onArrival)
		if err != nil {
			return 0, err
		}
		d.src = src
		src.Start(0)
	} else {
		for _, in := range d.insts {
			in.ScheduleUsers()
		}
	}

	nextSnap, nextSample, nextSync := math.Inf(1), math.Inf(1), math.Inf(1)
	if snapW > 0 {
		nextSnap = snapW
	}
	if sampleW > 0 {
		nextSample = sampleW
	}
	if syncW > 0 {
		nextSync = syncW
	}

	end := horizon
	for t := 0.0; t < horizon; {
		t1 := math.Min(horizon, math.Min(nextSync, math.Min(nextSnap, nextSample)))
		if open {
			d.ctl.RunUntil(t1)
		}
		d.forEach(func(i int) { d.engs[i].RunUntil(t1) })
		if open {
			d.applyCompletions()
			d.recycleDispatch()
		}
		if t1 == nextSnap {
			ll.refresh()
			nextSnap += snapW
		}
		if t1 == nextSample {
			d.reg.Sample(t1)
			nextSample += sampleW
		}
		if t1 == nextSync {
			nextSync += syncW
		}
		t = t1
		switch {
		case d.anyCanceled(), d.allStable(),
			open && d.src.Exhausted() && d.totalLive() == 0:
			// Fleet stops quantize to the window boundary: the members
			// already ran through t1, so that is the fleet's common end.
			end = t1
			t = horizon
		}
	}
	return end, nil
}

// applyCompletions drains the per-instance completion buffers in merged
// global order — ascending completion time, ties by instance index — so
// the coordinator's occupancy, live counts, and central latency
// accumulation replay the serial schedule exactly, independent of which
// worker ran which instance.
func (d *Deployment) applyCompletions() {
	comps, heads := d.comps, d.heads
	for {
		best := -1
		for i := range comps {
			if heads[i] >= len(comps[i]) {
				continue
			}
			if best < 0 || comps[i][heads[i]].at < comps[best][heads[best]].at {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := comps[best][heads[best]]
		heads[best]++
		d.live[best]--
		d.admit.Release(c.at)
		d.latency.Add(c.lat)
		d.latencyH.Add(c.lat)
	}
	for i := range comps {
		comps[i] = comps[i][:0]
		heads[i] = 0
	}
}

// dispatchEv is a pooled cross-engine hop: the coordinator fills it with
// an admitted arrival and schedules it into the target instance's engine
// at the arrival time; the instance fires it and parks it on its spent
// list, which the coordinator folds back into the free list at the next
// barrier. Steady state allocates nothing — the pools grow to the peak
// per-window arrival count and stay there.
type dispatchEv struct {
	a    core.Arrival
	fire sim.Handler
}

// dispatch enqueues an admitted arrival into instance i's engine through
// the pool. Coordinator-only.
func (d *Deployment) dispatch(i int, now float64, a core.Arrival) {
	var ev *dispatchEv
	if n := len(d.freeDisp[i]); n > 0 {
		ev = d.freeDisp[i][n-1]
		d.freeDisp[i] = d.freeDisp[i][:n-1]
	} else {
		ev = &dispatchEv{}
		in := d.insts[i]
		ev.fire = func(at float64) {
			in.Dispatch(at, ev.a)
			// Instance-goroutine-owned during the window; harvested at the
			// barrier.
			d.spentDisp[i] = append(d.spentDisp[i], ev)
		}
	}
	ev.a = a
	d.engs[i].At(now, ev.fire)
}

// recycleDispatch returns the window's fired dispatch events to the free
// lists. Runs at the barrier, after the workers have parked.
func (d *Deployment) recycleDispatch() {
	for i := range d.spentDisp {
		d.freeDisp[i] = append(d.freeDisp[i], d.spentDisp[i]...)
		d.spentDisp[i] = d.spentDisp[i][:0]
	}
}
