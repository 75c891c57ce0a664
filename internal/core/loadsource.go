package core

import (
	"fmt"

	"rofs/internal/sim"
	"rofs/internal/stats"
	"rofs/internal/workload"
)

// This file is the load-source half of the core refactor: the closed-loop
// per-user sessions of §2.2 (scheduleUsers in instance.go, unchanged) get a
// sibling — an open-loop arrival process that models the request stream a
// front-end fleet sees, where offered load does not back off when the
// server slows down. A single-instance run drives its own Instance through
// Dispatch; a cluster Deployment interposes admission and routing between
// the source and N instances.

// arrivalSeedSalt offsets the arrival process's dedicated RNG from the run
// seed, so enabling open-loop arrivals never perturbs the workload's own
// draw sequence (file picks, sizes, offsets).
const arrivalSeedSalt = 0x41525256 // "ARRV"

// Arrival is one open-loop request, resolved by the ArrivalSource: the
// workload type index it targets, an optional forced operation (-1: drawn
// from the type's operation mix at dispatch), and the client key affinity
// routing hashes. Only the source constructs these.
type Arrival struct {
	Type   int
	Op     int // opKind value, or -1
	Client int
}

// ArrivalSink receives each arrival as it occurs in simulated time.
type ArrivalSink func(now float64, a Arrival)

// ArrivalSource schedules an open-loop arrival process into an engine:
// Poisson arrivals at a fixed rate, or a replayed timestamped trace. It
// draws from a dedicated RNG stream and feeds a sink — directly an
// Instance for plain runs, a cluster Deployment's admission/routing front
// end for fleets. The hot path allocates nothing: one self-rescheduling
// handler emits every arrival.
type ArrivalSource struct {
	eng     *sim.Engine
	rng     *sim.RNG
	mode    string
	gapMS   float64 // poisson mean inter-arrival gap
	clients int
	weights []float64 // per-type arrival weights (the types' user counts)
	sink    ArrivalSink

	// Trace replay state: operations pre-resolved to type/op indices.
	trace []Arrival
	atMS  []float64
	next  int
	base  float64

	fire sim.Handler
}

// NewArrivalSource builds the source for a workload's Arrivals block. The
// seed is the run (or instance) seed; the dedicated salt keeps the arrival
// stream independent of the workload stream.
func NewArrivalSource(eng *sim.Engine, seed int64, wl *workload.Workload, sink ArrivalSink) (*ArrivalSource, error) {
	spec := wl.Arrivals
	if spec == nil {
		return nil, fmt.Errorf("core: workload %q has no arrivals block", wl.Name)
	}
	if err := spec.Validate(wl); err != nil {
		return nil, err
	}
	s := &ArrivalSource{
		eng:     eng,
		rng:     sim.NewRNG(seed + arrivalSeedSalt),
		mode:    spec.EffectiveMode(),
		clients: spec.EffectiveClients(),
		sink:    sink,
	}
	s.weights = make([]float64, len(wl.Types))
	for i := range wl.Types {
		s.weights[i] = float64(wl.Types[i].Users)
	}
	switch s.mode {
	case workload.ArrivalsPoisson:
		s.gapMS = 1000 / spec.RatePerSec
	case workload.ArrivalsTrace:
		s.trace = make([]Arrival, len(spec.Trace))
		s.atMS = make([]float64, len(spec.Trace))
		for i := range spec.Trace {
			op := &spec.Trace[i]
			s.atMS[i] = op.AtMS
			a := Arrival{Type: -1, Op: -1, Client: op.Client}
			if op.Type != "" {
				a.Type = wl.TypeIndex(op.Type)
			}
			switch op.Op {
			case "read":
				a.Op = int(opRead)
			case "write":
				a.Op = int(opWrite)
			case "extend":
				a.Op = int(opExtend)
			case "dealloc":
				a.Op = int(opDealloc)
			}
			s.trace[i] = a
		}
	}
	s.fire = s.emit
	return s, nil
}

// Start schedules the first arrival. Trace timestamps are relative to the
// start time (measurement begins after initialization and fill, well past
// simulated time zero).
func (s *ArrivalSource) Start(now float64) {
	s.base = now
	switch s.mode {
	case workload.ArrivalsPoisson:
		s.eng.After(s.rng.Exp(s.gapMS), s.fire)
	case workload.ArrivalsTrace:
		if len(s.trace) > 0 {
			s.eng.At(s.base+s.atMS[0], s.fire)
		}
	}
}

// emit delivers one arrival and schedules the next.
func (s *ArrivalSource) emit(now float64) {
	var a Arrival
	if s.mode == workload.ArrivalsTrace {
		a = s.trace[s.next]
		s.next++
	} else {
		a = Arrival{Type: -1, Op: -1}
	}
	if a.Type < 0 {
		a.Type = s.rng.Pick(s.weights)
	}
	if s.mode == workload.ArrivalsPoisson {
		a.Client = s.rng.Intn(s.clients)
	}
	s.sink(now, a)
	switch s.mode {
	case workload.ArrivalsPoisson:
		s.eng.After(s.rng.Exp(s.gapMS), s.fire)
	case workload.ArrivalsTrace:
		if s.next < len(s.trace) {
			s.eng.At(s.base+s.atMS[s.next], s.fire)
		}
	}
}

// Exhausted reports whether a trace source has replayed every operation.
// Poisson sources never exhaust.
func (s *ArrivalSource) Exhausted() bool {
	return s.mode == workload.ArrivalsTrace && s.next >= len(s.trace)
}

// Dispatch injects one open-loop arrival into the instance: a pooled
// operation executes it against a file of the arrival's type and releases
// itself on completion (see userOp.complete). Steady state allocates
// nothing — the free list reaches the arrival process's peak concurrency
// and stays there.
func (s *Instance) Dispatch(now float64, a Arrival) {
	var u *userOp
	if n := len(s.freeOps); n > 0 {
		u = s.freeOps[n-1]
		s.freeOps = s.freeOps[:n-1]
	} else {
		u = newUserOp(s, nil)
		u.open = true
	}
	u.ts = s.types[a.Type]
	u.forced = opKind(a.Op)
	s.inFlightOpen++
	s.doOp(u)
}

// --- Exported fleet surface -------------------------------------------------
//
// A cluster Deployment assembles N instances — each on its own engine —
// and drives them through the methods below; a plain Run never needs
// them.
//
// Concurrency contract: an Instance is single-goroutine state. The
// Deployment's executor confines each instance (and its engine) to one
// worker goroutine per window, with barriers between windows handing
// ownership back to the coordinator; callbacks installed via SetOnStable
// and SetOnOpDone run on the instance's worker and must only touch the
// instance's own slot in coordinator-preallocated per-index storage.
// Nothing in this package locks, and nothing needs to.

// NewInstance builds one fleet member in the shared engine: fleet slot idx,
// RNG stream Seed + idx·stride (slot 0 draws identically to a plain run).
func NewInstance(cfg Config, kind TestKind, eng *sim.Engine, idx int) (*Instance, error) {
	tk, err := kindState(kind)
	if err != nil {
		return nil, err
	}
	return newInstance(cfg, tk, eng, idx)
}

// kindState maps the exported TestKind to the instance-level test state.
func kindState(kind TestKind) (testKind, error) {
	switch kind {
	case Allocation, AllocationRealloc:
		return allocationTest, nil
	case Application:
		return applicationTest, nil
	case Sequential:
		return sequentialTest, nil
	case Aging:
		return agingTest, nil
	default:
		return 0, fmt.Errorf("core: unknown test kind %d", int(kind))
	}
}

// PrimeThroughput runs the initialization phases of a throughput test:
// create and grow the file population, then fill to the lower utilization
// bound. It fails if the disk fills during initialization.
func (s *Instance) PrimeThroughput() error {
	if s.initFiles() {
		return fmt.Errorf("core: disk filled during initialization (utilization target too high)")
	}
	s.fill()
	return nil
}

// StartMeasurement arms throughput tracking and the stabilization tick.
func (s *Instance) StartMeasurement() { s.startTracker() }

// ScheduleUsers starts the closed-loop per-user event streams.
func (s *Instance) ScheduleUsers() { s.scheduleUsers() }

// SetOnStable installs the fleet stabilization callback (see onStable).
func (s *Instance) SetOnStable(fn func()) { s.onStable = fn }

// SetOnOpDone installs the open-loop completion callback: it fires once
// per dispatched arrival with the completion time and the operation's
// latency in simulated milliseconds.
func (s *Instance) SetOnOpDone(fn func(in *Instance, now, latencyMS float64)) {
	s.onOpDone = fn
}

// Index returns the instance's fleet slot.
func (s *Instance) Index() int { return s.idx }

// MaxSimMS returns the resolved simulated-time cap (Config.MaxSimMS after
// defaulting) — the horizon a Deployment runs the shared engine to.
func (s *Instance) MaxSimMS() float64 { return s.cfg.MaxSimMS }

// NewLatencyHistogram builds an empty histogram over the same bucket
// bounds every instance's latency histogram uses, so fleet-level merges
// and central latency accounting share the core's quantile resolution.
func NewLatencyHistogram() *stats.Histogram { return stats.NewHistogram(latencyBounds) }

// InFlight returns the number of dispatched open-loop operations not yet
// completed — the live load a router's snapshots observe.
func (s *Instance) InFlight() int { return s.inFlightOpen }

// Ops returns the operations completed so far.
func (s *Instance) Ops() int64 { return s.ops }

// Utilization returns the file system's current allocated/capacity ratio.
func (s *Instance) Utilization() float64 { return s.fsys.Utilization() }

// Stable reports whether the instance's throughput has stabilized.
func (s *Instance) Stable() bool {
	return s.tracker != nil && s.tracker.Stable()
}

// Canceled reports whether Config.Cancel fired during this instance's run.
func (s *Instance) Canceled() bool { return s.canceled }

// Result assembles the instance's throughput-test result for a run that
// ended at simulated time end, including the post-run consistency check
// and trace flush.
func (s *Instance) Result(end float64) (PerfResult, error) {
	return s.perfTail(end)
}

// MergeLatency folds this instance's per-operation latency into fleet-level
// accumulators (the histogram must share latencyBounds, which all
// instances do).
func (s *Instance) MergeLatency(w *stats.Welford, h *stats.Histogram) {
	w.Merge(&s.latency)
	if s.latencyH != nil {
		h.Merge(s.latencyH)
	}
}

// Fingerprint is a compact summary of one instance's deterministic
// state: two runs that must be identical (e.g. one fleet at different
// worker counts) must agree on every field.
type Fingerprint struct {
	Index int
	Seed  int64
	// Draws is the RNG stream position (primitive draws made so far).
	Draws       uint64
	Ops         int64
	AllocFails  int64
	Utilization float64
	Files       int64
}

// Fingerprint returns the instance's current Fingerprint.
func (s *Instance) Fingerprint() Fingerprint {
	return Fingerprint{
		Index:       s.idx,
		Seed:        s.seed,
		Draws:       s.rng.Draws(),
		Ops:         s.ops,
		AllocFails:  s.allocFails,
		Utilization: s.fsys.Utilization(),
		Files:       int64(s.fsys.Files()),
	}
}
