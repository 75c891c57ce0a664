package core

import (
	"fmt"
	"math"

	"rofs/internal/fault"
	"rofs/internal/fs"
)

// FragResult reports an allocation test (§3): fragmentation measured at
// the moment the first allocation request fails.
type FragResult struct {
	Policy   string
	Workload string
	// InternalPct is allocated-but-unused space as a percent of allocated
	// space; ExternalPct is free space as a percent of total space.
	InternalPct float64
	ExternalPct float64
	// Filled reports whether the disk actually filled; a false value means
	// the operation cap was hit first and the percentages describe the
	// final (not-full) state.
	Filled bool
	Ops    int64
	SimMS  float64
	// ExtentsPerFile is the average number of extents per file under the
	// extent policy (Table 4); zero for other policies.
	ExtentsPerFile float64
	// Meta is the metadata footprint at the end of the test under the
	// default inode/indirect model — the [STON81] comparison.
	Meta fs.MetaStats
}

// PerfResult reports a throughput test (§3).
type PerfResult struct {
	Policy   string
	Workload string
	// Percent is throughput as a percent of the disk system's maximum
	// sustained bandwidth — the paper's reporting unit.
	Percent float64
	// Stable reports whether the §2.2 stabilization rule was met before
	// the simulated-time cap; if not, Percent is the overall average.
	Stable     bool
	Windows    int
	SimMS      float64
	Bytes      int64
	Ops        int64
	AllocFails int64
	// Operation latency over the whole run (simulated milliseconds):
	// mean, and an upper bound on the 95th percentile from log-spaced
	// histogram buckets.
	MeanLatencyMS float64
	P95LatencyMS  float64
	// FinalUtilization is allocated/capacity at the end of the run; the
	// §2.2 bounds keep it inside [LowerUtil, UpperUtil] plus at most one
	// allocation granule of overshoot.
	FinalUtilization float64
	// Faults is the run's fault report — failures, degraded time, rebuild
	// progress, retries — present only when Config.Faults was enabled, so
	// fault-free results serialize exactly as before.
	Faults *fault.Report `json:",omitempty"`
	// Cluster is the fleet-level report — routing, admission, per-instance
	// results — present only for multi-instance cluster runs, so plain
	// results serialize exactly as before.
	Cluster *ClusterReport `json:",omitempty"`
	// Compaction is the log-structured overlay's report — segment flushes,
	// merges, write amplification — present only when the workload armed
	// one, so plain results serialize exactly as before.
	Compaction *CompactionReport `json:",omitempty"`
}

// allocation runs the §3 allocation test on a fresh instance:
// initialization, then only extend/truncate/delete/create traffic until
// the first allocation failure.
func (s *Instance) allocation() (FragResult, error) {
	res := FragResult{Policy: s.cfg.Policy.Name(), Workload: s.cfg.Workload.Name}
	if !s.initFiles() {
		s.ScheduleUsers()
		s.eng.Run(math.Inf(1))
		if !s.diskFull {
			// Operation cap: report the current state, flagged.
			s.internal = s.fsys.InternalFragPct()
			s.external = s.fsys.ExternalFragPct()
		}
	}
	res.InternalPct = s.internal
	res.ExternalPct = s.external
	res.Filled = s.diskFull
	res.Ops = s.ops
	res.SimMS = s.fullAtMS
	res.ExtentsPerFile = s.extentsPerFile()
	res.Meta = s.fsys.MetaStats(fs.DefaultMetaModel())
	return res, s.postRun()
}

// extentsPerFile averages the extent policy's as-allocated extent counts
// over all live files (Table 4).
func (s *Instance) extentsPerFile() float64 {
	type counter interface{ ExtentCount() int }
	var total, n int64
	for _, ts := range s.types {
		for _, f := range ts.files {
			if c, ok := f.Alloc().(counter); ok {
				total += int64(c.ExtentCount())
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// ReallocResult reports the effect of Koch's nightly reallocator on a
// filled buddy disk: fragmentation at the first failure, and again after
// every file has been compacted to at most three tight extents.
type ReallocResult struct {
	Before, After FragResult
	// Compacted and Failed count files the reallocator did and could not
	// tighten.
	Compacted, Failed int
}

// compacter is the reallocation hook the buddy policy's files implement.
type compacter interface {
	Compact(used int64, maxExtents int) bool
}

// allocationRealloc runs the allocation test and then the [KOCH87]
// reallocator the paper excluded (§4.1), quantifying how much of the buddy
// system's fragmentation the nightly rearranger would win back. Policies
// without a reallocator yield After == Before.
func (s *Instance) allocationRealloc() (ReallocResult, error) {
	var res ReallocResult
	mk := func() FragResult {
		return FragResult{
			Policy:      s.cfg.Policy.Name(),
			Workload:    s.cfg.Workload.Name,
			InternalPct: s.fsys.InternalFragPct(),
			ExternalPct: s.fsys.ExternalFragPct(),
			Filled:      s.diskFull,
			Ops:         s.ops,
		}
	}
	if !s.initFiles() {
		s.ScheduleUsers()
		s.eng.Run(math.Inf(1))
	}
	res.Before = mk()
	ub := s.fsys.UnitBytes()
	for _, ts := range s.types {
		for _, f := range ts.files {
			c, ok := f.Alloc().(compacter)
			if !ok {
				continue
			}
			used := (f.Length() + ub - 1) / ub
			if c.Compact(used, 0) {
				res.Compacted++
			} else {
				res.Failed++
			}
		}
	}
	res.After = mk()
	return res, nil
}

// perf shares the application/sequential flow: initialize, fill to the
// lower utilization bound, measure until stable or capped. The instance's
// kind at entry selects the test; a workload with an Arrivals block runs
// the measurement phase open-loop instead of scheduling user streams.
func (s *Instance) perf() (PerfResult, error) {
	seq := s.kind == Sequential
	if s.cfg.Workload.Arrivals != nil {
		if seq {
			return PerfResult{}, fmt.Errorf("core: open-loop arrivals drive the application test only (the sequential test's whole-file phases are inherently closed-loop)")
		}
		return s.perfOpenLoop()
	}
	res := PerfResult{Policy: s.cfg.Policy.Name(), Workload: s.cfg.Workload.Name}
	if err := s.PrimeThroughput(); err != nil {
		return res, err
	}
	if seq {
		// §3: "When the throughput has stabilized the throughput numbers
		// are recorded and the sequential test begins" — the sequential
		// test measures the state the application phase aged.
		s.kind = Application
		s.StartMeasurement()
		s.ScheduleUsers()
		s.eng.Run(s.eng.Now() + s.cfg.MaxSimMS)
		s.kind = Sequential
		s.StartMeasurement()
	} else {
		s.StartMeasurement()
		s.ScheduleUsers()
	}
	end := s.eng.Run(s.eng.Now() + s.cfg.MaxSimMS)
	return s.Result(end)
}

// perfOpenLoop runs the measurement phase against the workload's arrival
// process: same initialization and fill, but operations arrive from the
// open-loop source instead of closed user streams. A trace run stops when
// the replay drains; a Poisson run stops at stabilization or the cap.
func (s *Instance) perfOpenLoop() (PerfResult, error) {
	res := PerfResult{Policy: s.cfg.Policy.Name(), Workload: s.cfg.Workload.Name}
	if err := s.PrimeThroughput(); err != nil {
		return res, err
	}
	s.StartMeasurement()
	src, err := NewArrivalSource(s.eng, s.cfg.Seed, &s.cfg.Workload, s.Dispatch)
	if err != nil {
		return res, err
	}
	s.onOpDone = func(_ *Instance, _, _ float64) {
		if src.Exhausted() && s.inFlightOpen == 0 {
			s.eng.Stop()
		}
	}
	src.Start(s.eng.Now())
	end := s.eng.Run(s.eng.Now() + s.cfg.MaxSimMS)
	return s.Result(end)
}

// Result assembles the throughput-test result for a run that ended at
// simulated time end: tracker readout, latency summary, fault report, the
// post-run consistency check and the trace flush. Plain runs, open-loop
// runs, and fleet members all share it.
func (s *Instance) Result(end float64) (PerfResult, error) {
	res := PerfResult{Policy: s.cfg.Policy.Name(), Workload: s.cfg.Workload.Name}
	res.Stable = s.tracker.Stable()
	if res.Stable {
		res.Percent = s.tracker.StablePercent()
	} else {
		res.Percent = s.tracker.OverallPercent(end)
	}
	res.Windows = s.tracker.Windows()
	res.SimMS = end
	res.Bytes = s.tracker.TotalBytes()
	res.Ops = s.ops
	res.AllocFails = s.allocFails
	res.MeanLatencyMS = s.latency.Mean()
	res.P95LatencyMS = s.latencyH.Quantile(0.95)
	res.FinalUtilization = s.fsys.Utilization()
	if s.inj != nil {
		res.Faults = s.inj.Report(end)
	}
	if s.comp != nil {
		cr := s.comp.report()
		res.Compaction = &cr
	}
	return res, s.postRun()
}

// postRun ends every test kind: the post-run fsck, then the event trace's
// flush.
func (s *Instance) postRun() error {
	if err := s.fsys.Check(); err != nil {
		return fmt.Errorf("core: post-run fsck: %w", err)
	}
	if err := s.trace.flush(); err != nil {
		return fmt.Errorf("core: trace: %w", err)
	}
	return nil
}
