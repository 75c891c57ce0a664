package disk

import (
	"fmt"

	"rofs/internal/sim"
)

// This file is the mechanism half of the fault model: transient-error
// completion paths, mid-run drive failure, and the hot-spare rebuild
// engine. The policy half — when drives fail, how failures are logged and
// reported — lives in internal/fault, which arms this file through
// ArmFaults and drives it through FailDriveNow. With no FaultConfig armed
// every hook below reduces to a nil check on System.flt, so the healthy
// hot path is unchanged.

// FaultEventKind labels a FaultEvent.
type FaultEventKind uint8

const (
	// EventDriveFailed fires when a drive fails mid-run (FailDriveNow).
	EventDriveFailed FaultEventKind = iota
	// EventRebuildStarted fires when the hot spare swaps in and background
	// reconstruction begins.
	EventRebuildStarted
	// EventRebuildDone fires when the last chunk lands on the spare and
	// the array leaves degraded mode.
	EventRebuildDone
)

// String implements fmt.Stringer.
func (k FaultEventKind) String() string {
	switch k {
	case EventDriveFailed:
		return "drive-failed"
	case EventRebuildStarted:
		return "rebuild-started"
	case EventRebuildDone:
		return "rebuild-done"
	default:
		return fmt.Sprintf("FaultEventKind(%d)", int(k))
	}
}

// FaultEvent is one state transition of the fault machinery, delivered to
// FaultConfig.OnEvent as it happens in simulated time.
type FaultEvent struct {
	Kind   FaultEventKind
	TimeMS float64
	Drive  int
}

// FaultConfig arms the disk system's fault mechanisms.
type FaultConfig struct {
	// RNG draws transient-error outcomes; required when TransientProb > 0.
	// It must be dedicated to the fault model — sharing the workload's RNG
	// would perturb the workload's draw sequence.
	RNG *sim.RNG
	// TransientProb is the per-segment probability that a serviced
	// foreground segment completes with a transient error, failing its
	// request.
	TransientProb float64
	// Rebuild enables the hot spare: SpareDelayMS after FailDriveNow,
	// background reconstruction reads every chunk of the failed drive's
	// span from the survivors and writes it to the spare, chunk by chunk,
	// through the normal per-drive queues.
	Rebuild      bool
	SpareDelayMS float64
	// ChunkBytes is the reconstruction granularity (default: one stripe
	// unit).
	ChunkBytes int64
	// PauseMS throttles the rebuild rate: the gap between one chunk
	// completing and the next being issued.
	PauseMS float64
	// OnEvent observes fault state transitions (nil: no observer).
	OnEvent func(ev FaultEvent)
}

// faultState is the armed fault machinery's runtime state.
type faultState struct {
	cfg FaultConfig

	transientErrors int64
	driveFailures   int64
	rebuildSegments int64
	rebuildBytes    int64

	rebuilding bool
	rebuildPos int64 // next byte offset within the per-drive span

	degradedSince float64 // valid while the array is degraded
	degradedMS    float64 // closed degraded intervals
}

// FaultStats snapshots the fault machinery's counters.
type FaultStats struct {
	DriveFailures   int64
	TransientErrors int64
	RebuildSegments int64
	RebuildBytes    int64
	Rebuilding      bool
	Degraded        bool
	// DegradedMS is the total simulated time spent degraded, including
	// the still-open interval up to now.
	DegradedMS float64
}

// ArmFaults installs the fault mechanisms. It must be called before the
// simulation starts; a system never armed carries zero overhead.
func (s *System) ArmFaults(cfg FaultConfig) error {
	if cfg.TransientProb < 0 || cfg.TransientProb > 1 {
		return fmt.Errorf("disk: transient probability %g outside [0, 1]", cfg.TransientProb)
	}
	if cfg.TransientProb > 0 && cfg.RNG == nil {
		return fmt.Errorf("disk: transient errors need a dedicated RNG")
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = s.cfg.StripeUnitBytes
	}
	s.flt = &faultState{cfg: cfg}
	return nil
}

// Degraded reports whether a drive is currently failed.
func (s *System) Degraded() bool { return s.failed >= 0 }

// Rebuilding reports whether background reconstruction is in progress.
func (s *System) Rebuilding() bool { return s.flt != nil && s.flt.rebuilding }

// FaultStats snapshots the fault counters as of simulated time now.
func (s *System) FaultStats(now float64) FaultStats {
	if s.flt == nil {
		return FaultStats{}
	}
	st := FaultStats{
		DriveFailures:   s.flt.driveFailures,
		TransientErrors: s.flt.transientErrors,
		RebuildSegments: s.flt.rebuildSegments,
		RebuildBytes:    s.flt.rebuildBytes,
		Rebuilding:      s.flt.rebuilding,
		Degraded:        s.failed >= 0,
		DegradedMS:      s.flt.degradedMS,
	}
	if s.failed >= 0 {
		st.DegradedMS += now - s.flt.degradedSince
	}
	return st
}

// After schedules fn after delayMS of simulated time — engine access for
// layers above that hold no engine reference (the fs retry backoff).
func (s *System) After(delayMS float64, fn sim.Handler) { s.eng.After(delayMS, fn) }

// event delivers a fault state transition to the armed observer.
func (s *System) event(kind FaultEventKind, now float64, drv int) {
	if s.flt.cfg.OnEvent != nil {
		s.flt.cfg.OnEvent(FaultEvent{Kind: kind, TimeMS: now, Drive: drv})
	}
}

// FailDriveNow fails drive i at simulated time now, mid-run: queued
// segments on the drive fail immediately (their requests complete on the
// failure path), the in-flight segment fails on completion, subsequent
// submissions run degraded, and — when the armed FaultConfig enables
// rebuild — the hot spare swaps in after the configured delay. RAID5 only;
// a second failure while already degraded is ignored (the model has one
// spare slot). The system must have been armed with ArmFaults.
func (s *System) FailDriveNow(i int, now float64) error {
	if s.flt == nil {
		return fmt.Errorf("disk: FailDriveNow without ArmFaults")
	}
	if s.cfg.Layout != RAID5 {
		return fmt.Errorf("disk: drive failure requires RAID5, not %v", s.cfg.Layout)
	}
	if i < 0 || i >= s.cfg.NDisks {
		return fmt.Errorf("disk: no drive %d in a %d-drive array", i, s.cfg.NDisks)
	}
	if s.failed >= 0 {
		return nil
	}
	s.failed = i
	s.flt.driveFailures++
	s.mDriveFailures.Inc()
	s.flt.degradedSince = now
	s.event(EventDriveFailed, now, i)

	// Fail everything queued on the dead drive now; the in-flight segment
	// (if any) fails when its service completes.
	d := s.drives[i]
	q := d.queue
	d.queue = d.queue[:0]
	for j, e := range q {
		q[j] = queued{}
		p := e.seg.req
		p.failed = true
		s.releaseSegment(e.seg)
		s.segmentDone(p, now)
	}
	if d.busy {
		d.cur.diskFailed = true
	}

	if s.flt.cfg.Rebuild {
		s.eng.After(s.flt.cfg.SpareDelayMS, func(now float64) { s.startRebuild(now) })
	}
	return nil
}

// startRebuild begins background reconstruction onto the hot spare, which
// takes over the failed drive's slot (its queue was flushed at failure
// time).
func (s *System) startRebuild(now float64) {
	if s.failed < 0 || s.flt.rebuilding {
		return
	}
	s.flt.rebuilding = true
	s.flt.rebuildPos = 0
	s.event(EventRebuildStarted, now, s.failed)
	s.issueRebuildChunk(now)
}

// issueRebuildChunk reconstructs the next chunk: read its span from every
// surviving drive (one internal request through the normal queues), then
// write it to the spare, then advance — pausing PauseMS between chunks
// when the rebuild rate is throttled.
func (s *System) issueRebuildChunk(now float64) {
	if s.failed < 0 {
		return
	}
	pos := s.flt.rebuildPos
	if pos >= s.usablePerDrive {
		s.finishRebuild(now)
		return
	}
	chunk := s.flt.cfg.ChunkBytes
	if chunk > s.usablePerDrive-pos {
		chunk = s.usablePerDrive - pos
	}
	p := s.newPending(s.cfg.NDisks-1, 0, func(now float64) { s.rebuildReadsDone(pos, chunk, now) })
	p.internal = true
	p.submitMS = now
	for d := 0; d < s.cfg.NDisks; d++ {
		if d == s.failed {
			continue
		}
		seg := s.newSegment(pos, chunk, false, 0)
		seg.req = p
		s.flt.rebuildSegments++
		s.enqueue(d, seg)
	}
}

// rebuildReadsDone writes the reconstructed chunk to the spare.
func (s *System) rebuildReadsDone(pos, chunk int64, now float64) {
	if s.failed < 0 {
		return
	}
	p := s.newPending(1, 0, func(now float64) { s.rebuildWriteDone(chunk, now) })
	p.internal = true
	p.submitMS = now
	seg := s.newSegment(pos, chunk, true, 0)
	seg.req = p
	s.flt.rebuildSegments++
	s.enqueue(s.failed, seg)
}

// rebuildWriteDone advances past the landed chunk.
func (s *System) rebuildWriteDone(chunk int64, now float64) {
	s.flt.rebuildBytes += chunk
	s.mRebuildBytes.Add(chunk)
	s.flt.rebuildPos += chunk
	if s.flt.rebuildPos >= s.usablePerDrive {
		s.finishRebuild(now)
		return
	}
	if s.flt.cfg.PauseMS > 0 {
		s.eng.After(s.flt.cfg.PauseMS, func(now float64) { s.issueRebuildChunk(now) })
	} else {
		s.issueRebuildChunk(now)
	}
}

// finishRebuild heals the array: the spare holds a full reconstruction
// and the drive slot returns to service.
func (s *System) finishRebuild(now float64) {
	drv := s.failed
	s.failed = -1
	s.flt.rebuilding = false
	s.flt.degradedMS += now - s.flt.degradedSince
	s.event(EventRebuildDone, now, drv)
}
