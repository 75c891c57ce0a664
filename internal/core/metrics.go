package core

import (
	"fmt"
	"strconv"

	"rofs/internal/alloc"
	"rofs/internal/fs"
	"rofs/internal/metrics"
	"rofs/internal/sim"
)

// wireMetrics attaches the session's simulator stack to the run's metrics
// registry: identity labels, per-layer handles, the timeline samplers, and
// the operation-mix counters. With Config.Metrics nil every handle stays
// nil and the instrumentation points reduce to nil checks; the sampling
// tick is never scheduled, so a metrics-off run fires exactly the same
// event sequence as before the registry existed.
func (s *Instance) wireMetrics() {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	reg.SetLabel("policy", s.cfg.Policy.Name())
	reg.SetLabel("workload", s.cfg.Workload.Name)
	reg.SetLabel("test", s.kind.String())
	reg.SetLabel("seed", strconv.FormatInt(s.cfg.Seed, 10))

	s.dsys.SetMetrics(reg)
	s.fsys.SetMetrics(reg)

	for op, name := range opNames {
		s.mOps[op] = reg.Counter("core.ops." + name)
	}
	s.mAllocFails = reg.Counter("core.alloc_fails")
	s.mLatency = reg.Histogram("core.latency_ms", latencyBounds)

	// Engine timelines: cumulative events fired and instantaneous heap
	// depth at each sampling instant.
	reg.TimelineFunc("sim.events", func() float64 { return float64(s.eng.Fired()) })
	reg.TimelineFunc("sim.heap_depth", func() float64 { return float64(s.eng.Pending()) })

	// Fragmentation timelines — the §3 quantities as they evolve, not just
	// at first failure.
	reg.TimelineFunc("frag.internal_pct", s.fsys.InternalFragPct)
	reg.TimelineFunc("frag.external_pct", s.fsys.ExternalFragPct)
	reg.TimelineFunc("frag.utilization", s.fsys.Utilization)

	// Free-space-shape timelines, only on the aging test — other kinds'
	// bundles keep their existing series set byte for byte.
	if s.kind == Aging {
		if fr, ok := s.fsys.Policy().(alloc.FreeSpaceReporter); ok {
			reg.TimelineFunc("frag.free_fragments", func() float64 {
				return float64(fr.FreeSpaceStats().Fragments)
			})
			reg.TimelineFunc("frag.largest_free_units", func() float64 {
				return float64(fr.FreeSpaceStats().LargestUnits)
			})
		}
	}

	// Fault timelines, only when a scenario is armed — fault-free bundles
	// keep their pre-fault series set.
	if s.inj != nil {
		reg.TimelineFunc("fault.degraded", func() float64 {
			if s.dsys.Degraded() {
				return 1
			}
			return 0
		})
		reg.TimelineFunc("fault.rebuilding", func() float64 {
			if s.dsys.Rebuilding() {
				return 1
			}
			return 0
		})
	}

	// Per-drive queue depth and utilization (busy time over elapsed time).
	// One shared StatsInto buffer keeps the per-sample cost to a single
	// bounded refill.
	nd := s.cfg.Disk.NDisks
	depth := make([]*metrics.Timeline, nd)
	util := make([]*metrics.Timeline, nd)
	for i := 0; i < nd; i++ {
		depth[i] = reg.Timeline(fmt.Sprintf("disk.drive.%d.queue_depth", i))
		util[i] = reg.Timeline(fmt.Sprintf("disk.drive.%d.util_pct", i))
	}
	reg.RegisterSampler(func(nowMS float64) {
		s.driveBuf = s.dsys.StatsInto(s.driveBuf)
		for i, ds := range s.driveBuf {
			depth[i].Append(nowMS, float64(ds.QueueLen))
			u := 0.0
			if nowMS > 0 {
				u = 100 * ds.BusyMS / nowMS
			}
			util[i].Append(nowMS, u)
		}
	})
}

// startMetricsTick schedules the self-rescheduling engine event that
// drives timeline sampling at the registry's interval of *simulated* time.
// It is only scheduled when metrics are enabled, so a metrics-off run's
// event sequence — and therefore its seeded results — is untouched.
func (s *Instance) startMetricsTick() {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	interval := reg.IntervalMS()
	var tick sim.Handler
	tick = func(now float64) {
		reg.Sample(now)
		s.eng.After(interval, tick)
	}
	s.eng.After(interval, tick)
}

// finalizeMetrics captures the end-of-run scalars: per-drive service-time
// decomposition, allocator operation counts, metadata footprint, engine
// high-water marks, and workload shape. Called once from Run after the
// test completes (also on error paths that produced a session).
func (s *Instance) finalizeMetrics() {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	reg.Gauge("sim.events_fired").Set(float64(s.eng.Fired()))
	reg.Gauge("sim.heap_max").Set(float64(s.eng.MaxPending()))
	reg.Gauge("sim.end_ms").Set(s.eng.Now())

	for i, ds := range s.dsys.Stats() {
		p := fmt.Sprintf("disk.drive.%d.", i)
		reg.Gauge(p + "busy_ms").Set(ds.BusyMS)
		reg.Gauge(p + "seek_ms").Set(ds.SeekMS)
		reg.Gauge(p + "rot_ms").Set(ds.RotMS)
		reg.Gauge(p + "xfer_ms").Set(ds.TransferMS)
		reg.Gauge(p + "seeks").Set(float64(ds.Seeks))
		reg.Gauge(p + "bytes_read").Set(float64(ds.BytesRead))
		reg.Gauge(p + "bytes_written").Set(float64(ds.BytesWritten))
	}

	if sr, ok := s.fsys.Policy().(alloc.StatsReporter); ok {
		st := sr.OpStats()
		reg.Counter("alloc.allocs").Add(st.Allocs)
		reg.Counter("alloc.frees").Add(st.Frees)
		reg.Counter("alloc.coalesces").Add(st.Coalesces)
	}

	meta := s.fsys.MetaStats(fs.DefaultMetaModel())
	reg.Gauge("fs.meta_bytes").Set(float64(meta.MetaBytes))
	reg.Gauge("fs.files").Set(float64(s.fsys.Files()))
	reg.Gauge("frag.final_internal_pct").Set(s.fsys.InternalFragPct())
	reg.Gauge("frag.final_external_pct").Set(s.fsys.ExternalFragPct())
	reg.Gauge("frag.final_utilization").Set(s.fsys.Utilization())

	var users, types float64
	for _, ft := range s.cfg.Workload.Types {
		users += float64(ft.Users)
		types++
	}
	reg.Gauge("workload.users").Set(users)
	reg.Gauge("workload.types").Set(types)

	reg.Gauge("core.ops_total").Set(float64(s.ops))

	if s.kind == Aging {
		if fr, ok := s.fsys.Policy().(alloc.FreeSpaceReporter); ok {
			st := fr.FreeSpaceStats()
			reg.Gauge("frag.final_free_fragments").Set(float64(st.Fragments))
			reg.Gauge("frag.final_largest_free_units").Set(float64(st.LargestUnits))
		}
	}

	if s.inj != nil {
		fst := s.dsys.FaultStats(s.eng.Now())
		reg.Gauge("fault.drive_failures").Set(float64(fst.DriveFailures))
		reg.Gauge("fault.transient_errors").Set(float64(fst.TransientErrors))
		reg.Gauge("fault.rebuild_bytes").Set(float64(fst.RebuildBytes))
		reg.Gauge("fault.rebuild_segments").Set(float64(fst.RebuildSegments))
		reg.Gauge("fault.degraded_ms").Set(fst.DegradedMS)
		rst := s.fsys.RetryStats()
		reg.Gauge("fault.retries").Set(float64(rst.Retries))
		reg.Gauge("fault.permanent_errors").Set(float64(rst.PermanentErrors))
	}

	// A final sample closes every timeline at the run's end time, so a run
	// shorter than one interval still exports non-empty series. Finish
	// then lets go of the samplers, which reach the whole simulator.
	reg.Finish(s.eng.Now())
}
