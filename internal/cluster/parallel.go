package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"rofs/internal/core"
	"rofs/internal/sim"
)

// This file is the fleet execution layer: per-instance engines advanced in
// one of three tiers, picked from the configuration alone (see pickTier).
//
// Tier 1 — independent (runIndependent). A closed-loop fleet with metrics
// off has no cross-instance coupling whatsoever: each member serves its
// own user population from its own RNG stream on its own engine. Every
// engine runs to its own stop on the worker pool, and a single barrier
// merges the results in instance-index order.
//
// Tier 2 — windowed (runWindowed). Fleets whose front end reads instance
// state (least-loaded routing, bounded-queue admission) and metrics-on
// fleets couple at every window boundary. All engines advance in bounded
// simulated-time windows; the coordinator owns the simulated interval
// (t, t1] exclusively at the boundary t1 and exchanges everything there:
// the window's arrivals are admitted, routed, and enqueued into the
// target engines before the window runs; the window's completions are
// applied afterwards in merged (time, instance) order. The window grid is
// the coupling grid itself — the router snapshot interval when one is
// configured, else Config.SyncMS, else defaultSyncMS — so every barrier
// observes the same snapshots and admission state. A window holds too
// little work to pay for a barrier (a 16-instance least-loaded fleet ran
// 0.98x as fast at two workers on a 2-vCPU Xeon; EXPERIMENTS.md,
// "Parallel fleets"), so this tier runs its engines serially and ignores
// Parallelism.
//
// Tier 3 — batched (runBatched, batched.go). An open-loop, metrics-off
// fleet whose front end reads no instance state — round-robin or affinity
// routing, admit-all or token-bucket admission — routes and admits as a
// function of the arrival stream alone. It keeps the windowed grid but
// advances a batch of consecutive windows per barrier, and pipelines the
// serial work: the round that runs batch b also generates batch b+1's
// arrivals and merges batch b−1's completions, as two more tasks for the
// workers. Batching cannot change results:
//
//   - same engine calls: each instance's worker schedules window j's
//     arrivals, in arrival order, into its engine and then runs it to g_j
//     — the calls the windowed tier makes at its barrier, so event
//     sequence numbers and tie-breaks are unchanged;
//   - window-partitioned merge: every completion of window j falls in
//     (g_{j−1}, g_j], so one (time, instance) merge over a batch yields
//     exactly the per-window merge sequence that feeds the central
//     latency accumulator;
//   - monotone stops: once an instance is stable, or the trace is spent
//     and the instance idle, it stays so. Each instance pauses at the
//     first grid point where its own predicate holds; only if every
//     instance paused can the windowed tier's stop fall inside the batch,
//     at the latest pause point or after it, and the coordinator finds it
//     there exactly (see runBatched).
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

// tier names a fleet execution tier.
type tier int

const (
	tierIndependent tier = iota
	tierWindowed
	tierBatched
)

// pickTier selects the execution tier: closed-loop metrics-off fleets run
// independently, open-loop metrics-off fleets whose front end reads no
// instance state run batched, and everything else runs windowed.
func (d *Deployment) pickTier() tier {
	if d.reg != nil {
		return tierWindowed
	}
	if d.cfg.Workload.Arrivals == nil {
		return tierIndependent
	}
	_, ll := d.router.(*leastLoaded)
	_, bq := d.admit.(*boundedQueue)
	if ll || bq {
		return tierWindowed
	}
	return tierBatched
}

// pool runs rounds of tasks on the coordinator goroutine (worker 0) plus
// par−1 helper goroutines that live for the whole run, so a round costs a
// wake-up rather than a goroutine spawn. Worker w scans the round's tasks
// starting at its own share (w·n/par), claiming each unclaimed task, so a
// task index tends to stay on one worker from round to round — an
// instance's state stays in that core's cache — while idle workers still
// take over whatever is left. The round returns once every task has
// finished, and that barrier hands all task-touched state back to the
// coordinator.
type pool struct {
	workers int
	wake    []chan struct{} // per helper: one start signal per round
	done    sync.WaitGroup  // helpers still in the current round
	exited  sync.WaitGroup  // helpers still running
	claimed []atomic.Bool
	n       int
	fn      func(task int)
}

func newPool(par int) *pool {
	p := &pool{workers: par, wake: make([]chan struct{}, par)}
	p.exited.Add(par - 1)
	for w := 1; w < par; w++ {
		w := w
		p.wake[w] = make(chan struct{}, 1)
		go func() {
			defer p.exited.Done()
			for range p.wake[w] {
				p.drain(w)
				p.done.Done()
			}
		}()
	}
	return p
}

// run executes fn(0..n−1), inline when there is nothing to fan out.
func (p *pool) run(n int, fn func(task int)) {
	if p.workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if len(p.claimed) < n {
		p.claimed = make([]atomic.Bool, n)
	}
	for i := 0; i < n; i++ {
		p.claimed[i].Store(false)
	}
	p.fn, p.n = fn, n
	p.done.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		p.wake[w] <- struct{}{}
	}
	p.drain(0)
	p.done.Wait()
}

func (p *pool) drain(w int) {
	i := w * p.n / p.workers
	for k := 0; k < p.n; k++ {
		if p.claimed[i].CompareAndSwap(false, true) {
			p.fn(i)
		}
		if i++; i == p.n {
			i = 0
		}
	}
}

// close stops the helpers and returns once they have exited.
func (p *pool) close() {
	for _, c := range p.wake[1:] {
		close(c)
	}
	p.exited.Wait()
}

// prime fans the allocation-only initialization phase across the workers.
// Priming advances no simulated time and is instance-local; errors are
// reported in instance order whatever order the workers finish in.
func (d *Deployment) prime() error {
	errs := make([]error, len(d.insts))
	d.pool.run(len(d.insts), func(i int) { errs[i] = d.insts[i].PrimeThroughput() })
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
	d.pool.run(len(d.insts), func(i int) { d.engs[i].Run(horizon) })
	if d.anyCanceled() {
		return d.latestNow(), nil
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
	d.pool.run(len(d.insts), func(i int) {
		if t := d.stableAt[i]; !math.IsNaN(t) && t < end {
			d.engs[i].RunUntil(end)
		}
	})
	return end, nil
}

// latestNow is the fleet's end after a cancel: the furthest any engine
// got.
func (d *Deployment) latestNow() float64 {
	end := 0.0
	for _, e := range d.engs {
		end = math.Max(end, e.Now())
	}
	return end
}

// syncWindow is the open-loop lookahead window: Config.SyncMS, else the
// router's snapshot interval (whose grid holds the only mid-run coupling
// reads anyway), else defaultSyncMS.
func (d *Deployment) syncWindow(snapW float64) float64 {
	switch {
	case d.cc.SyncMS > 0:
		return d.cc.SyncMS
	case snapW > 0:
		return snapW
	default:
		return defaultSyncMS
	}
}

// startArrivals puts the arrival source on its own control-plane engine,
// so the coordinator can replay each window's arrivals before the
// instance engines run it, and readies the instances' lanes. Seed and
// salt match the shared-engine fleet, so the arrival sequence is
// unchanged.
func (d *Deployment) startArrivals(sink core.ArrivalSink) error {
	d.lanes = make([]lane, len(d.insts))
	d.ctl = &sim.Engine{}
	src, err := core.NewArrivalSource(d.ctl, d.cfg.Seed, &d.cfg.Workload, sink)
	if err != nil {
		return err
	}
	d.src = src
	src.Start(0)
	return nil
}

// runWindowed is tier 2: the conservative-lookahead loop. Per window —
//
//  1. the control-plane engine fires the window's arrivals (open-loop),
//     admitting, routing, and enqueuing pooled dispatch events into the
//     target instance engines at the exact arrival times;
//  2. every instance engine advances to the boundary, in index order;
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
		syncW = d.syncWindow(snapW)
	}

	var comps [][]completion
	var merge merger
	if open {
		comps = make([][]completion, len(d.insts))
		for i, in := range d.insts {
			i := i
			in.SetOnOpDone(func(_ *core.Instance, now, lat float64) {
				comps[i] = append(comps[i], completion{at: now, lat: lat})
			})
		}
		if err := d.startArrivals(d.onArrival); err != nil {
			return 0, err
		}
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
		for i, e := range d.engs {
			e.RunUntil(t1)
			if open {
				d.lanes[i].recycle()
			}
		}
		if open {
			// Completions feed the live counts, admission releases, and
			// central latency in merged global order, so the coordinator
			// replays the serial schedule exactly.
			for merge.reset(comps); ; {
				i, c, ok := merge.next()
				if !ok {
					break
				}
				d.live[i]--
				d.admit.Release(c.at)
				d.latency.Add(c.lat)
				d.latencyH.Add(c.lat)
			}
			for i := range comps {
				comps[i] = comps[i][:0]
			}
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

// merger yields buffered per-instance completions in merged global order
// — ascending completion time, ties by instance index — through a binary
// heap holding each non-empty buffer's head time and instance. Each buffer
// is in time order already (an engine fires in time order). The scratch
// is reused: steady state allocates nothing.
type merger struct {
	comps [][]completion
	heads []int
	heap  []head
}

// head is a buffer's next completion time, keyed with its instance.
type head struct {
	at float64
	i  int
}

func (a head) less(b head) bool { return a.at < b.at || a.at == b.at && a.i < b.i }

// reset starts a merge over comps; the buffers are only read.
func (m *merger) reset(comps [][]completion) {
	m.comps = comps
	if len(m.heads) != len(comps) {
		m.heads = make([]int, len(comps))
	}
	m.heap = m.heap[:0]
	for i := range comps {
		m.heads[i] = 0
		if len(comps[i]) > 0 {
			m.heap = append(m.heap, head{comps[i][0].at, i})
		}
	}
	for k := len(m.heap)/2 - 1; k >= 0; k-- {
		m.down(k)
	}
}

// next returns the next completion and its instance, or ok=false once
// every buffer is drained.
func (m *merger) next() (int, completion, bool) {
	if len(m.heap) == 0 {
		return 0, completion{}, false
	}
	i := m.heap[0].i
	c := m.comps[i][m.heads[i]]
	m.heads[i]++
	if h := m.heads[i]; h < len(m.comps[i]) {
		m.heap[0].at = m.comps[i][h].at
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	if len(m.heap) > 0 {
		m.down(0)
	}
	return i, c, true
}

func (m *merger) down(k int) {
	h := m.heap
	x := h[k]
	for {
		c := 2*k + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(x) {
			break
		}
		h[k] = h[c]
		k = c
	}
	h[k] = x
}

// lane is the state an executor writes while it runs one instance: the
// instance's dispatch-event pools and, in the batched tier, its in-flight
// count, completion buffers and window cursor. Workers running different
// instances write only their own lanes, and the padding keeps two lanes'
// fields off a shared cache line.
type lane struct {
	free, spent []*dispatchEv

	// Batched tier only (see batched.go).
	comps  [2][]completion // completions of even and odd batches
	parity int             // which comps buffer the running batch fills
	live   int             // dispatched minus completed
	pos    int             // next window of the running batch
	paused int             // window the instance paused at this round, −1 if none

	_ [64]byte
}

// dispatchEv is a pooled cross-engine hop: an admitted arrival scheduled
// into the target instance's engine at the arrival time; the instance
// fires it and parks it on its lane's spent list, which recycle folds
// back into the free list once the engine has run past it. Steady state
// allocates nothing — the pools grow to the peak per-window arrival count
// and stay there.
type dispatchEv struct {
	a    core.Arrival
	fire sim.Handler
}

// dispatch enqueues an admitted arrival into the instance's engine through
// the lane's pool. It touches only that instance, engine and lane: the
// windowed coordinator calls it at the barrier, the batched tier from the
// worker that runs the instance.
func (ln *lane) dispatch(in *core.Instance, eng *sim.Engine, now float64, a core.Arrival) {
	var ev *dispatchEv
	if n := len(ln.free); n > 0 {
		ev = ln.free[n-1]
		ln.free = ln.free[:n-1]
	} else {
		ev = &dispatchEv{}
		ev.fire = func(at float64) {
			in.Dispatch(at, ev.a)
			ln.spent = append(ln.spent, ev)
		}
	}
	ev.a = a
	eng.At(now, ev.fire)
}

// recycle returns the lane's fired dispatch events to its free list, after
// the engine has run through a window.
func (ln *lane) recycle() {
	ln.free = append(ln.free, ln.spent...)
	ln.spent = ln.spent[:0]
}
