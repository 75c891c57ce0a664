package core

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"rofs/internal/disk"
	"rofs/internal/fault"
	"rofs/internal/fs"
	"rofs/internal/metrics"
	"rofs/internal/sim"
	"rofs/internal/stats"
	"rofs/internal/units"
	"rofs/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	Disk     disk.Config
	Policy   PolicySpec
	Workload workload.Workload
	Seed     int64

	// Utilization bounds of §3 (defaults 0.90 / 0.95): measurement starts
	// at LowerUtil; extends above UpperUtil become truncates.
	LowerUtil, UpperUtil float64

	// Stabilization rule of §2.2 (defaults: 10 s windows, 0.1 percentage
	// points, 3 consecutive windows).
	WindowMS      float64
	TolerancePct  float64
	StableWindows int

	// MaxSimMS caps a throughput run that never stabilizes (default 600 s
	// simulated); the overall average is reported instead.
	MaxSimMS float64

	// MaxOps caps an allocation test that never fills the disk (default
	// 20 million operations).
	MaxOps int64

	// ChunkBytes is the streaming chunk for whole-file transfers in the
	// sequential test (default 2M).
	ChunkBytes int64

	// TraceWriter, when set, receives a tab-separated event trace: one
	// "op" record per completed operation and one "seg" record per disk
	// segment serviced (the format is eventTrace's, in trace.go).
	TraceWriter io.Writer

	// Metrics, when set, collects the run's counters, gauges, histograms,
	// and simulated-time timelines (see internal/metrics). Nil — the
	// default — disables all metric work; enabling metrics schedules the
	// sampling tick into the engine, so a metrics-on run's event sequence
	// (still deterministic per seed) differs from a metrics-off run's.
	Metrics *metrics.Registry

	// Faults, when enabled, injects the declared fault scenario into the
	// run: seeded drive failures, transient media errors, hot-spare
	// rebuild, and bounded retry-with-backoff (see internal/fault). It
	// applies to the timing tests only — the allocation test measures
	// space, not time, and ignores it. The fault RNG is dedicated, so
	// enabling faults never perturbs the workload's draw sequence.
	Faults fault.Scenario

	// Cancel, when non-nil, is polled between operations: once it is
	// closed the run stops early and reports ErrCanceled. It is how the
	// runner's pool propagates context cancellation and timeouts into a
	// simulation without threading a context through the hot path.
	Cancel <-chan struct{}
}

func (c *Config) setDefaults() error {
	if c.Disk.NDisks == 0 {
		c.Disk = disk.DefaultConfig()
	}
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.LowerUtil == 0 {
		c.LowerUtil = 0.90
	}
	if c.UpperUtil == 0 {
		c.UpperUtil = 0.95
	}
	if c.LowerUtil <= 0 || c.UpperUtil <= c.LowerUtil || c.UpperUtil > 1 {
		return fmt.Errorf("core: bad utilization bounds [%g, %g]", c.LowerUtil, c.UpperUtil)
	}
	if c.WindowMS == 0 {
		c.WindowMS = 10_000
	}
	if c.TolerancePct == 0 {
		c.TolerancePct = 0.1
	}
	if c.StableWindows == 0 {
		c.StableWindows = 3
	}
	if !(c.MaxSimMS >= 0) {
		return fmt.Errorf("core: MaxSimMS must be non-negative, got %g", c.MaxSimMS)
	}
	if c.MaxSimMS == 0 {
		c.MaxSimMS = 600_000
	}
	if c.MaxOps == 0 {
		c.MaxOps = 20_000_000
	}
	if c.ChunkBytes == 0 {
		// The read-optimized policies stream large transfers (read-ahead /
		// write-behind across big blocks). The fixed-block baseline "does
		// not bias towards automatic striping or contiguous layout" (§5):
		// it issues one block at a time, so concurrent streams interleave
		// at block granularity.
		if c.Policy.Kind == "fixed" && c.Policy.BlockBytes > 0 {
			c.ChunkBytes = c.Policy.BlockBytes
		} else {
			c.ChunkBytes = 2 * units.MB
		}
	}
	return nil
}

// Instance is one live simulated file server: disk array, allocation
// policy, file system, and the per-file-type populations — everything
// that was the old one-run "session", minus the assumption that it owns
// the engine. A plain run drives one Instance on a private engine; a
// cluster Deployment drives N of them inside one shared engine, each with
// its own RNG stream derived from Seed and the instance index.
type Instance struct {
	cfg  Config
	kind TestKind // Allocation, Application, Sequential or Aging
	idx  int      // instance index within a fleet (0 for plain runs)
	seed int64    // effective seed (Config.Seed + idx stride)

	eng  *sim.Engine
	rng  *sim.RNG
	dsys *disk.System
	fsys *fs.FileSystem
	inj  *fault.Injector // nil unless Config.Faults is enabled

	types   []*typeState
	tracker *stats.ThroughputTracker
	trace   *eventTrace // nil unless Config.TraceWriter is set

	comp *compactor // log-structured overlay; nil unless armed

	ops        int64
	allocFails int64
	latency    stats.Welford    // per-operation completion latency (ms)
	latencyH   *stats.Histogram // for tail quantiles
	pickBuf    [4]float64       // weight scratch for pickOp (no per-op slice)

	// Open-loop dispatch state: pooled arrival operations and the live
	// count a router's load snapshots read. Closed-loop runs never touch
	// these.
	freeOps      []*userOp
	inFlightOpen int
	onOpDone     func(in *Instance, now, latencyMS float64)

	// onStable, when non-nil, replaces the default stop-the-engine
	// reaction to throughput stabilization — a fleet stops only when every
	// instance is stable, so the Deployment installs a counter here.
	onStable func()

	// Metrics handles (nil when Config.Metrics is nil; see metrics.go).
	mOps        [len(opNames)]*metrics.Counter
	mAllocFails *metrics.Counter
	mLatency    *metrics.Hist
	driveBuf    []disk.DriveStats // sampler scratch
	// Allocation-test termination state.
	diskFull bool
	fullAtMS float64
	internal float64
	external float64

	// canceled records that Config.Cancel fired mid-run.
	canceled bool
}

// checkCancel polls Config.Cancel every strideth call (counted by *n); on
// cancellation it records the fact, stops the engine, and reports true.
func (s *Instance) checkCancel(n int64, stride int64) bool {
	if s.canceled {
		return true
	}
	if s.cfg.Cancel == nil || n%stride != 0 {
		return false
	}
	select {
	case <-s.cfg.Cancel:
		s.canceled = true
		s.eng.Stop()
		return true
	default:
		return false
	}
}

type typeState struct {
	ft    workload.FileType
	files []*fs.File
	zipf  *rand.Zipf // hot-file selector when ft.HotSkew > 1
}

// pickFile selects the file a request targets: uniform (the paper's
// model), or Zipf-ranked when the type declares hot files.
func (s *Instance) pickFile(ts *typeState) *fs.File {
	if ts.ft.HotSkew > 1 && len(ts.files) > 1 {
		if ts.zipf == nil {
			ts.zipf = s.rng.NewZipf(ts.ft.HotSkew, 1<<30)
		}
		return ts.files[int(ts.zipf.Uint64()%uint64(len(ts.files)))]
	}
	return ts.files[s.rng.Intn(len(ts.files))]
}

// latencyBounds are the histogram bucket boundaries (ms) used for
// operation-latency quantiles: roughly log-spaced from one rotation to
// minutes.
var latencyBounds = []float64{5, 10, 20, 35, 50, 75, 100, 150, 250, 400, 650,
	1000, 2000, 4000, 8000, 16000, 32000, 64000, 120000}

// instanceSeedStride separates fleet members' RNG streams: instance i
// seeds at Seed + i*stride. A large odd constant keeps nearby base seeds'
// fleets from colliding; index 0 leaves Seed untouched, so a plain run and
// fleet member 0 draw identical streams.
const instanceSeedStride = 1_000_003

// newInstance builds the simulator stack for fleet slot idx on the given
// engine (nil: the instance owns a fresh engine, the plain-run case).
// Throughput tests attach the disk system to the file system; the
// allocation test runs without disk timing (operations complete
// immediately) since it measures space, not time.
func newInstance(cfg Config, kind TestKind, eng *sim.Engine, idx int) (*Instance, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if eng == nil {
		eng = &sim.Engine{}
	}
	seed := cfg.Seed + int64(idx)*instanceSeedStride
	s := &Instance{cfg: cfg, kind: kind, idx: idx, seed: seed, eng: eng, rng: sim.NewRNG(seed)}
	if !kind.spaceOnly() {
		s.latencyH = stats.NewHistogram(latencyBounds)
	}
	dsys, err := disk.New(cfg.Disk, s.eng)
	if err != nil {
		return nil, err
	}
	s.dsys = dsys
	if cfg.Faults.PreFail {
		// The one way to start a run with a dead drive.
		if err := dsys.FailDrive(cfg.Faults.FailDrive); err != nil {
			return nil, err
		}
	}
	if cfg.TraceWriter != nil {
		s.trace = newEventTrace(cfg.TraceWriter)
		dsys.SetSpanTrace(s.trace.seg)
	}
	policy, err := cfg.Policy.Build(dsys.Units(), dsys.UnitBytes(), s.rng)
	if err != nil {
		return nil, err
	}
	attached := dsys
	if kind.spaceOnly() {
		attached = nil
	}
	fsys, err := fs.New(policy, attached, dsys.UnitBytes())
	if err != nil {
		return nil, err
	}
	s.fsys = fsys
	if cfg.Faults.Enabled() && !kind.spaceOnly() {
		inj, err := fault.NewInjector(cfg.Faults, seed, dsys, fsys)
		if err != nil {
			return nil, err
		}
		s.inj = inj
	}
	if cfg.Workload.Compact != nil {
		// The overlay needs real drive traffic and a throughput phase; the
		// space-only and sequential kinds have neither use for it.
		if kind != Application {
			return nil, fmt.Errorf("core: compaction overlay requires the application test, not the %s test", kind)
		}
		s.comp = newCompactor(s)
	}
	s.wireMetrics()
	s.startMetricsTick()
	return s, nil
}

// drawInitialSize samples a file's initial size: uniform around the
// type's mean (§2.2), rounded to whole disk units — the granularity the
// simulated file sizes live at, like the sector-granular sizes of the
// paper's simulator.
func (s *Instance) drawInitialSize(ft *workload.FileType) int64 {
	size := s.rng.SizeUniform(float64(ft.InitialBytes), float64(ft.InitialDevBytes), 0)
	return units.RoundUp(size, s.fsys.UnitBytes())
}

// initFiles runs the paper's second initialization phase: each file is
// created and grown to a size drawn uniformly around its type's initial
// size (§2.2). It reports whether the disk filled during initialization.
func (s *Instance) initFiles() bool {
	for i := range s.cfg.Workload.Types {
		ft := s.cfg.Workload.Types[i]
		ts := &typeState{ft: ft}
		for n := 0; n < ft.Files; n++ {
			f := s.fsys.Create(ft.AllocSizeBytes)
			size := s.drawInitialSize(&ft)
			if err := f.Allocate(size); err != nil {
				s.markFull(0)
				return true
			}
			if ft.Pattern == workload.Sequential && f.Length() > 0 {
				f.SetCursor(s.rng.Int63n(f.Length()))
			}
			ts.files = append(ts.files, f)
		}
		s.types = append(s.types, ts)
	}
	return false
}

// fill pushes utilization up to the lower measurement bound by growing
// randomly chosen files without disk traffic — the §3 precondition that
// "the disks are at least 90% full" when measurement begins.
func (s *Instance) fill() {
	target := s.cfg.LowerUtil
	for n := int64(1); s.fsys.Utilization() < target; n++ {
		if s.checkCancel(n, 512) {
			return
		}
		ts := s.types[s.rng.Intn(len(s.types))]
		f := ts.files[s.rng.Intn(len(ts.files))]
		grow := ts.ft.AllocSizeBytes
		if grow <= 0 {
			grow = ts.ft.RWSizeBytes
		}
		if err := f.Allocate(grow); err != nil {
			return // cannot fill further; run with what we have
		}
	}
}

// markFull records the allocation-test termination state: fragmentation is
// measured "as soon as the first allocation request fails" (§3).
func (s *Instance) markFull(now float64) {
	if s.diskFull {
		return
	}
	s.diskFull = true
	s.fullAtMS = now
	s.internal = s.fsys.InternalFragPct()
	s.external = s.fsys.ExternalFragPct()
	s.eng.Stop()
}

// ScheduleUsers starts the closed-loop per-type event streams (the paper's
// first initialization phase): each of the type's Users streams fires
// first at a time uniform in [0, Users·HitFrequency] and then
// ProcessTime-spaced.
func (s *Instance) ScheduleUsers() {
	for _, ts := range s.types {
		horizon := float64(ts.ft.Users) * ts.ft.HitFreqMS
		for u := 0; u < ts.ft.Users; u++ {
			uo := newUserOp(s, ts)
			s.eng.At(s.rng.Uniform(0, math.Max(horizon, 1)), uo.fire)
		}
	}
}

// userOp is one user stream's reusable operation state. A user stream is
// strictly sequential — issue an operation, wait for its completion, think,
// issue the next — so each stream owns exactly one in-flight operation and
// one of these structs for the session's lifetime. Its continuations are
// built once at creation and recycled through the engine's completion
// path, replacing the per-operation closure chains doOp/stream used to
// capture: steady-state operation dispatch allocates nothing.
type userOp struct {
	s  *Instance
	ts *typeState

	// In-flight operation state.
	f        *fs.File
	op       opKind
	issued   float64 // clock at issue, for latency accounting
	pos, end int64   // streaming-transfer window [pos, end)
	inFlight int64   // bytes of the chunk (or extend) at the disk
	write    bool

	// Open-loop arrivals reuse the same struct through the instance's free
	// list: open marks the mode (complete releases instead of
	// rescheduling), forced carries a trace-dictated operation (-1: draw
	// from the mix). Closed-loop streams never read either field.
	open   bool
	forced opKind

	// Continuations, built once per user: fire issues the next operation;
	// chunkDone advances a streaming transfer; extendDone completes an
	// extend's write-out.
	fire       sim.Handler
	chunkDone  func(now float64)
	extendDone func(now float64)
}

// newUserOp builds a user stream's operation state and its continuations.
func newUserOp(s *Instance, ts *typeState) *userOp {
	u := &userOp{s: s, ts: ts, forced: -1}
	u.fire = func(float64) { s.doOp(u) }
	u.chunkDone = u.onChunk
	u.extendDone = u.onExtend
	return u
}

// opNames label operations in the event trace.
var opNames = [...]string{"read", "write", "extend", "dealloc", "create"}

// complete finishes the in-flight operation at simulated time now — trace
// record, latency accounting, and the think-time reschedule, in the same
// order the former closure chain composed them.
func (u *userOp) complete(now float64) {
	s := u.s
	if s.trace != nil {
		s.trace.op(now, opNames[u.op], u.ts.ft.Name, u.f.Length(), now-u.issued)
	}
	s.mOps[u.op].Inc()
	if !s.kind.spaceOnly() {
		s.latency.Add(now - u.issued)
		if s.latencyH != nil {
			s.latencyH.Add(now - u.issued)
		}
		s.mLatency.Observe(now - u.issued)
	}
	if u.open {
		// Open-loop arrival: no think-time reschedule — release the op to
		// the free list and notify the dispatcher (load source or cluster
		// deployment) that a slot drained.
		lat := now - u.issued
		u.f = nil
		s.inFlightOpen--
		s.freeOps = append(s.freeOps, u)
		if s.onOpDone != nil {
			s.onOpDone(s, now, lat)
		}
		return
	}
	s.eng.After(s.rng.Exp(u.ts.ft.ProcessTimeMS), u.fire)
}

// startStream begins a chunked transfer of [off, off+n) — the pipeline of
// chunk-sized requests issued back to back that models read-ahead /
// write-behind (large chunks for the multiblock policies, one block for
// the fixed baseline, so concurrent streams interleave at block
// granularity and pay Figure 6's seeks). A zero-length transfer completes
// immediately.
func (u *userOp) startStream(off, n int64, write bool) {
	if n <= 0 {
		u.complete(u.s.eng.Now())
		return
	}
	u.pos, u.end, u.write = off, off+n, write
	u.issueChunk()
}

// issueChunk submits the next chunk of the in-flight transfer.
func (u *userOp) issueChunk() {
	chunk := u.s.cfg.ChunkBytes
	if u.pos+chunk > u.end {
		chunk = u.end - u.pos
	}
	u.inFlight = chunk
	if u.write {
		u.f.Write(u.pos, chunk, u.chunkDone)
	} else {
		u.f.Read(u.pos, chunk, u.chunkDone)
	}
}

// onChunk is the chunk-completion continuation: feed the throughput
// tracker as bytes move (not in one lump per operation), then issue the
// next chunk or complete the operation.
func (u *userOp) onChunk(now float64) {
	if s := u.s; s.tracker != nil {
		s.tracker.Record(now, u.inFlight)
	}
	u.pos += u.inFlight
	if u.pos >= u.end {
		u.complete(now)
	} else {
		u.issueChunk()
	}
}

// onExtend is the extend completion: the appended bytes were issued as one
// request and feed the tracker as one transfer.
func (u *userOp) onExtend(now float64) {
	if s := u.s; s.tracker != nil {
		s.tracker.Record(now, u.inFlight)
	}
	u.complete(now)
}

// opKind enumerates the simulated operations.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opExtend
	opDealloc
	opCreate
)

// pickOp draws an operation for the session's test kind: the allocation
// test performs "only the extend, truncate, delete, and create operations
// in the proportion as expressed by the file type parameters" (§3); the
// sequential test performs only reads and writes.
func (s *Instance) pickOp(ft *workload.FileType) opKind {
	switch s.kind {
	case Allocation, Aging:
		// "Only the extend, truncate, delete, and create operations in the
		// proportion as expressed by the file type parameters" (§3).
		// Creates run at the delete rate and add brand-new files, so the
		// population — and with it the disk — grows until the first
		// request fails, while deletes and truncates age the free space.
		dealloc := ft.DeallocPct()
		del := dealloc * ft.DeletePct / 100
		if ft.ExtendPct == 0 && dealloc == 0 {
			return opExtend // a type that never allocates still drives growth
		}
		s.pickBuf[0], s.pickBuf[1], s.pickBuf[2] = ft.ExtendPct, dealloc, del
		switch s.rng.Pick(s.pickBuf[:3]) {
		case 0:
			return opExtend
		case 1:
			return opDealloc // split into truncate vs delete in doOp
		default:
			return opCreate
		}
	case Sequential:
		rw := ft.ReadPct + ft.WritePct
		if rw == 0 {
			return opRead
		}
		s.pickBuf[0], s.pickBuf[1] = ft.ReadPct, ft.WritePct
		if s.rng.Pick(s.pickBuf[:2]) == 0 {
			return opRead
		}
		return opWrite
	default:
		s.pickBuf[0], s.pickBuf[1], s.pickBuf[2], s.pickBuf[3] =
			ft.ReadPct, ft.WritePct, ft.ExtendPct, ft.DeallocPct()
		switch s.rng.Pick(s.pickBuf[:4]) {
		case 0:
			return opRead
		case 1:
			return opWrite
		case 2:
			return opExtend
		default:
			return opDealloc
		}
	}
}

// doOp executes one operation for a random file of the user's type; the
// user's continuations carry it to its simulated completion.
func (s *Instance) doOp(u *userOp) {
	s.ops++
	if s.kind.spaceOnly() && s.ops > s.cfg.MaxOps {
		s.eng.Stop()
		return
	}
	if s.checkCancel(s.ops, 512) {
		return
	}
	ts := u.ts
	ft := &ts.ft
	u.issued = s.eng.Now()
	f := s.pickFile(ts)
	var op opKind
	if u.open && u.forced >= 0 {
		op = u.forced // trace-dictated operation
	} else {
		op = s.pickOp(ft)
	}

	// Reads and writes of an empty file become extends; the file was
	// deleted earlier and regrows.
	if (op == opRead || op == opWrite) && f.Length() == 0 {
		op = opExtend
	}
	// The §2.2 band keeping ("the disk utilization is kept between N and
	// M while measurements are being taken"): an extend above the ceiling
	// becomes a truncate, and a deallocation below the floor becomes an
	// extend.
	if s.kind != Allocation {
		switch util := s.fsys.Utilization(); {
		case (op == opExtend || op == opCreate) && util > s.cfg.UpperUtil:
			// Creates are in the mix only on the aging test, whose churn
			// must stay inside the band instead of growing until full.
			op = opDealloc
		case op == opDealloc && util < s.cfg.LowerUtil:
			op = opExtend
		}
	}
	u.f, u.op = f, op

	switch op {
	case opRead, opWrite:
		if s.kind == Sequential {
			u.startStream(0, f.Length(), op == opWrite)
			return
		}
		size := s.rng.SizeNormal(float64(ft.RWSizeBytes), float64(ft.RWDevBytes), 1)
		if size > f.Length() {
			size = f.Length()
		}
		off := s.offsetFor(ft, f, size)
		u.startStream(off, size, op == opWrite)
	case opExtend:
		size := ft.ExtendSize()
		if s.kind == Allocation {
			if err := f.Allocate(size); err != nil {
				s.markFull(s.eng.Now())
				return
			}
			u.complete(s.eng.Now())
			return
		}
		if s.kind == Aging {
			// Aging churns space without disk timing; a failed grow is the
			// §2.2 disk-full condition — log it and carry on, the band
			// keeping above pulls utilization back down.
			if err := f.Allocate(size); err != nil {
				s.allocFails++
				s.mAllocFails.Inc()
			}
			u.complete(s.eng.Now())
			return
		}
		u.inFlight = size
		if err := f.Extend(size, u.extendDone); err != nil {
			s.allocFails++ // disk full: log and reschedule (§2.2)
			s.mAllocFails.Inc()
			u.complete(s.eng.Now())
		}
	case opCreate:
		nf := s.fsys.Create(ft.AllocSizeBytes)
		size := s.drawInitialSize(ft)
		if err := nf.Allocate(size); err != nil {
			if s.kind != Aging {
				s.markFull(s.eng.Now())
				return
			}
			s.allocFails++
			s.mAllocFails.Inc()
			nf.Delete()
			u.complete(s.eng.Now())
			return
		}
		ts.files = append(ts.files, nf)
		u.complete(s.eng.Now())
	case opDealloc:
		if s.rng.Float64()*100 < ft.DeletePct {
			f.Recreate()
			size := s.drawInitialSize(ft)
			if err := f.Allocate(size); err != nil {
				if s.kind == Allocation {
					s.markFull(s.eng.Now())
					return
				}
				s.allocFails++
				s.mAllocFails.Inc()
			}
		} else {
			f.Truncate(ft.TruncateBytes)
		}
		u.complete(s.eng.Now())
	}
}

// offsetFor picks the read/write offset: uniform over size-aligned pages
// for random-pattern files (a database reads aligned pages, which also
// keeps an 8K access inside one stripe unit), cursor-advancing for
// sequential ones.
func (s *Instance) offsetFor(ft *workload.FileType, f *fs.File, size int64) int64 {
	if f.Length() <= size {
		return 0
	}
	if ft.Pattern == workload.Random {
		pages := f.Length() / size
		return s.rng.Int63n(pages) * size
	}
	off := f.Cursor()
	if off+size > f.Length() {
		off = 0
	}
	f.SetCursor(off + size)
	return off
}

// StartMeasurement arms throughput tracking and the 1-second tick that
// closes idle windows and stops the run at stabilization. Starting a new
// tracker supersedes any previous phase's tick chain.
func (s *Instance) StartMeasurement() {
	tr := stats.NewThroughputTracker(
		s.cfg.WindowMS, s.dsys.MaxBandwidth(), s.cfg.TolerancePct, s.cfg.StableWindows)
	s.tracker = tr
	tr.Start(s.eng.Now())
	if s.comp != nil {
		s.comp.start(s.eng.Now())
	}
	var tick sim.Handler
	tick = func(now float64) {
		if s.tracker != tr {
			return // a later measurement phase owns the tick now
		}
		tr.Tick(now)
		if tr.Stable() {
			// Plain runs stop the engine; a fleet member instead reports to
			// its Deployment, which stops only when every instance is stable.
			if s.onStable != nil {
				s.onStable()
			} else {
				s.eng.Stop()
			}
			return
		}
		s.eng.After(1000, tick)
	}
	s.eng.After(1000, tick)
}
