package core

import (
	"rofs/internal/alloc"
	"rofs/internal/sim"
)

// agingSamples is how many free-space snapshots an aging run takes across
// its horizon; with multi-day horizons each sample covers roughly an hour
// of simulated churn.
const agingSamples = 64

// AgingSample is one free-space snapshot of an aging run: the §3
// fragmentation quantities, the free-space shape (Sears & van Ingen's
// free-space-fragmentation metric), and the live object-size distribution
// the fragmentation is measured against.
type AgingSample struct {
	// SimMS is the simulated time of the snapshot.
	SimMS float64
	// Utilization, InternalPct, ExternalPct are the §3 quantities.
	Utilization float64
	InternalPct float64
	ExternalPct float64
	// FreeFragments counts the policy's discrete free pieces;
	// LargestFreeUnits is the biggest one (zero when the policy does not
	// report free-space shape).
	FreeFragments    int64
	LargestFreeUnits int64
	// Files and MeanFileBytes summarize the live object-size distribution.
	Files         int64
	MeanFileBytes float64
	// Ops and AllocFails are cumulative at the snapshot.
	Ops        int64
	AllocFails int64
}

// AgingResult reports an aging run: the sampled free-space decay timeline
// plus end-of-run totals.
type AgingResult struct {
	Policy   string
	Workload string
	SimMS    float64
	Ops      int64
	// AllocFails counts §2.2 disk-full conditions survived along the way.
	AllocFails int64
	Samples    []AgingSample
}

// Final returns the last sample (the end-of-run free-space state).
func (r *AgingResult) Final() AgingSample {
	if n := len(r.Samples); n > 0 {
		return r.Samples[n-1]
	}
	return AgingSample{}
}

// aging runs the aging test (Run with kind Aging) on a fresh space-only
// instance: initialization, fill to the lower utilization bound, then
// create/grow/truncate/delete churn held inside the utilization band for
// MaxSimMS of simulated time, sampling the free-space shape along the way.
func (s *Instance) aging() (AgingResult, error) {
	res := AgingResult{Policy: s.cfg.Policy.Name(), Workload: s.cfg.Workload.Name}
	if err := s.PrimeThroughput(); err != nil {
		return res, err
	}
	if s.canceled {
		return res, nil
	}
	s.sampleAging(&res, s.eng.Now())
	interval := s.cfg.MaxSimMS / agingSamples
	if interval <= 0 {
		interval = 1
	}
	var tick sim.Handler
	tick = func(now float64) {
		s.sampleAging(&res, now)
		s.eng.After(interval, tick)
	}
	s.eng.After(interval, tick)
	s.ScheduleUsers()
	end := s.eng.Run(s.eng.Now() + s.cfg.MaxSimMS)
	res.SimMS = end
	res.Ops = s.ops
	res.AllocFails = s.allocFails
	return res, s.postRun()
}

// sampleAging appends one free-space snapshot.
func (s *Instance) sampleAging(res *AgingResult, now float64) {
	smp := AgingSample{
		SimMS:       now,
		Utilization: s.fsys.Utilization(),
		InternalPct: s.fsys.InternalFragPct(),
		ExternalPct: s.fsys.ExternalFragPct(),
		Files:       int64(s.fsys.Files()),
		Ops:         s.ops,
		AllocFails:  s.allocFails,
	}
	if fr, ok := s.fsys.Policy().(alloc.FreeSpaceReporter); ok {
		st := fr.FreeSpaceStats()
		smp.FreeFragments = st.Fragments
		smp.LargestFreeUnits = st.LargestUnits
	}
	if smp.Files > 0 {
		smp.MeanFileBytes = float64(s.fsys.UsedBytes()) / float64(smp.Files)
	}
	res.Samples = append(res.Samples, smp)
}
