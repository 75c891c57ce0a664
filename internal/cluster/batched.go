package cluster

import (
	"math"

	"rofs/internal/core"
)

// batchWindows is the number of grid windows the batched tier advances per
// barrier; batchArrivals stops a batch from taking further windows once it
// has staged that many arrivals. Two batches are staged at once (one
// running, the next generating), so together they bound what the tier
// holds ahead of the instances.
const (
	batchWindows  = 16
	batchArrivals = 4096
)

// batch is a run of consecutive grid windows, staged by the generator
// ahead of the instances that run it.
type batch struct {
	grid  []float64 // window end points g_j, ascending
	marks []mark    // front-end counters as of each g_j
	base  []int64   // routed counts when the batch began
	// stage[i] holds the admitted arrivals routed to instance i in arrival
	// order; cuts[i][j] is where window j's end in it.
	stage [][]staged
	cuts  [][]int
	last  bool // the batch ends at the horizon
}

// staged is one admitted, routed arrival waiting for its window.
type staged struct {
	at float64
	a  core.Arrival
}

// mark is the front end's state at a grid point — what a stop there
// reports.
type mark struct {
	arrivals, admitted, rejected int64
	fired                        uint64 // control-plane events
	exhausted                    bool   // the trace has replayed every arrival
}

func newBatch(n int) batch {
	return batch{
		base:  make([]int64, n),
		stage: make([][]staged, n),
		cuts:  make([][]int, n),
	}
}

// window returns instance i's staged arrivals for window j.
func (b *batch) window(i, j int) []staged {
	lo := 0
	if j > 0 {
		lo = b.cuts[i][j-1]
	}
	return b.stage[i][lo:b.cuts[i][j]]
}

// Round task codes besides instance indices.
const (
	taskGenerate = -1
	taskMerge    = -2
)

// batchRun is one run of the batched tier.
type batchRun struct {
	d                        *Deployment
	horizon, syncW, nextSync float64

	ring    [2]batch // batch b lives in ring[b%2], its completions in lane comps[b%2]
	cur     *batch   // the batch the instances run
	staging *batch   // the batch the generator fills
	merge   merger
	bufs    [][]completion // the merge task's view of the lanes' buffers

	// The current round: its tasks, the lane buffers the merge task
	// drains, the window the instances run up to (exclusive), and whether
	// they pause.
	tasks  []int
	merged int
	to     int
	pause  bool
	taskFn func(int)

	// fallback: a stop predicate held at every instance without the
	// windowed tier's rule holding; from then on every round is one
	// window, and the rule is checked at each grid point.
	fallback bool
}

// runBatched is tier 3 (see the parallel.go header). Each barrier runs one
// round of tasks on the pool: generate the next batch, merge the previous
// batch's completions, and advance every instance through the current
// batch, each pausing at the first grid point where its own stop
// predicate holds — stable, or the trace spent and the instance idle.
// Both are monotone, and the windowed tier's rule (all stable, or the
// trace spent and the whole fleet idle) implies every instance's
// predicate. So:
//
//   - if some instance ran the round out without pausing, no stop fell in
//     it: the paused instances resume to the round's end;
//   - otherwise the first stop is at the latest pause point g* or later:
//     every instance advances to g*, and the coordinator applies the
//     windowed rule there. If it fails, the tier falls back to one window
//     per round, checking the rule at every grid point.
//
// A stop reports the front end's counters as of the stop's grid point;
// anything generated past it is discarded.
func (d *Deployment) runBatched() (float64, error) {
	n := len(d.insts)
	r := &batchRun{
		d:       d,
		horizon: d.insts[0].MaxSimMS(),
		syncW:   d.syncWindow(0),
		bufs:    make([][]completion, n),
	}
	r.nextSync = r.syncW
	r.taskFn = r.runTask // bound once: a method value allocates
	for k := range r.ring {
		r.ring[k] = newBatch(n)
	}
	if err := d.startArrivals(r.onArrival); err != nil {
		return 0, err
	}
	for i, in := range d.insts {
		i, ln := i, &d.lanes[i]
		in.SetOnStable(func() { d.stableAt[i] = d.engs[i].Now() })
		in.SetOnOpDone(func(_ *core.Instance, now, lat float64) {
			ln.comps[ln.parity] = append(ln.comps[ln.parity], completion{at: now, lat: lat})
			ln.live--
		})
	}
	if r.horizon <= 0 {
		return r.horizon, nil
	}

	r.staging = &r.ring[0]
	r.generate()
	for b := 0; ; b++ {
		parity, merged := b%2, -1
		cur := &r.ring[parity]
		r.cur = cur
		var gen *batch
		if !cur.last {
			gen = &r.ring[1-parity]
		}
		if b > 0 {
			merged = 1 - parity
		}
		for i := range d.lanes {
			d.lanes[i].pos, d.lanes[i].parity = 0, parity
		}
		nw := len(cur.grid)
		for p := 0; p < nw; {
			to := nw
			if r.fallback {
				to = p + 1
			}
			for i := range d.lanes {
				d.lanes[i].paused = -1
			}
			r.round(gen, merged, to, true)
			gen, merged = nil, -1
			if d.anyCanceled() {
				return d.latestNow(), nil
			}
			q := -1 // the latest pause point, if every instance paused
			for i := range d.lanes {
				j := d.lanes[i].paused
				if j < 0 {
					q = -1
					break
				}
				q = max(q, j)
			}
			if q < 0 {
				r.round(nil, -1, to, false)
				if d.anyCanceled() {
					return d.latestNow(), nil
				}
				p = to
				continue
			}
			r.round(nil, -1, q+1, false)
			if d.anyCanceled() {
				return d.latestNow(), nil
			}
			if d.allStable() || cur.marks[q].exhausted && r.idle() {
				return r.stop(q, parity), nil
			}
			r.fallback = true
			p = q + 1
		}
		if cur.last {
			return r.stop(nw-1, parity), nil
		}
	}
}

// round runs one barrier's tasks: the optional generate and merge tasks
// first (they are the longest), then every instance not yet at window to.
// merged is the parity of the lane buffers to merge, −1 for none.
func (r *batchRun) round(gen *batch, merged, to int, pause bool) {
	r.tasks = r.tasks[:0]
	if gen != nil {
		r.staging = gen
		r.tasks = append(r.tasks, taskGenerate)
	}
	if merged >= 0 {
		r.tasks = append(r.tasks, taskMerge)
	}
	r.merged, r.to, r.pause = merged, to, pause
	for i := range r.d.lanes {
		if r.d.lanes[i].pos < to {
			r.tasks = append(r.tasks, i)
		}
	}
	r.d.pool.run(len(r.tasks), r.taskFn)
}

// idle reports whether no instance has an operation in flight.
func (r *batchRun) idle() bool {
	for i := range r.d.lanes {
		if r.d.lanes[i].live != 0 {
			return false
		}
	}
	return true
}

func (r *batchRun) runTask(k int) {
	switch t := r.tasks[k]; t {
	case taskGenerate:
		r.generate()
	case taskMerge:
		r.mergeLanes(r.merged)
	default:
		r.advance(t)
	}
}

// generate stages the next batch into r.staging: it runs the control
// plane through up to batchK grid points, admitting and routing each
// arrival into per-instance staging lists (see onArrival) and recording
// the front end's counters at every grid point.
func (r *batchRun) generate() {
	d, b := r.d, r.staging
	b.grid, b.marks, b.last = b.grid[:0], b.marks[:0], false
	copy(b.base, d.routed)
	for i := range b.stage {
		b.stage[i], b.cuts[i] = b.stage[i][:0], b.cuts[i][:0]
	}
	start := d.admitted
	for len(b.grid) < d.batchK && d.admitted-start < int64(d.batchCap) {
		t1 := math.Min(r.horizon, r.nextSync)
		d.ctl.RunUntil(t1)
		b.grid = append(b.grid, t1)
		for i := range b.stage {
			b.cuts[i] = append(b.cuts[i], len(b.stage[i]))
		}
		b.marks = append(b.marks, mark{
			arrivals: d.arrivals, admitted: d.admitted, rejected: d.rejected,
			fired: d.ctl.Fired(), exhausted: d.src.Exhausted(),
		})
		if t1 == r.nextSync {
			r.nextSync += r.syncW
		}
		if t1 == r.horizon {
			b.last = true
			return
		}
	}
}

// onArrival is the batched tier's arrival sink: admit, route, stage.
func (r *batchRun) onArrival(now float64, a core.Arrival) {
	if i, ok := r.d.admitRoute(now, a); ok {
		r.staging.stage[i] = append(r.staging.stage[i], staged{at: now, a: a})
	}
}

// advance runs instance i through windows [pos[i], to) of the current
// batch — for each window, the same engine calls the windowed tier makes:
// schedule its arrivals in order, then run to its grid point — pausing at
// the first grid point where the instance's stop predicate holds when the
// round pauses. Only instance i's state is touched.
func (r *batchRun) advance(i int) {
	d, b, ln := r.d, r.cur, &r.d.lanes[i]
	in, eng := d.insts[i], d.engs[i]
	for j := ln.pos; j < r.to; j++ {
		w := b.window(i, j)
		for _, s := range w {
			ln.dispatch(in, eng, s.at, s.a)
		}
		ln.live += len(w)
		eng.RunUntil(b.grid[j])
		ln.recycle()
		ln.pos = j + 1
		if in.Canceled() {
			return
		}
		if r.pause && (!math.IsNaN(d.stableAt[i]) || b.marks[j].exhausted && ln.live == 0) {
			ln.paused = j
			return
		}
	}
}

// mergeLanes feeds one batch's completions — the lanes' buffers of the
// given parity — to the central latency accumulators in merged (time,
// instance) order: the windowed tier's per-window merge sequence, since
// every completion of window j falls in (g_{j−1}, g_j].
func (r *batchRun) mergeLanes(parity int) {
	d := r.d
	for i := range d.lanes {
		r.bufs[i] = d.lanes[i].comps[parity]
	}
	for r.merge.reset(r.bufs); ; {
		_, c, ok := r.merge.next()
		if !ok {
			break
		}
		d.latency.Add(c.lat)
		d.latencyH.Add(c.lat)
	}
	for i := range d.lanes {
		d.lanes[i].comps[parity] = d.lanes[i].comps[parity][:0]
	}
}

// stop ends the run at window q of the current batch: the front-end
// counters rewind to that grid point and the batch's completions — all
// at or before it, in the lane buffers of the given parity — are merged.
func (r *batchRun) stop(q, parity int) float64 {
	d, b := r.d, r.cur
	m := b.marks[q]
	d.arrivals, d.admitted, d.rejected = m.arrivals, m.admitted, m.rejected
	d.ctlAhead = d.ctl.Fired() - m.fired
	for i := range d.routed {
		d.routed[i] = b.base[i] + int64(b.cuts[i][q])
	}
	r.mergeLanes(parity)
	return b.grid[q]
}
