package fault

import (
	"fmt"

	"rofs/internal/disk"
	"rofs/internal/fs"
	"rofs/internal/sim"
)

// faultSeedOffset separates the fault RNG's stream from the workload RNG
// when the scenario's own Seed is zero: the two generators must never
// share a sequence, or enabling faults would change which failures the
// workload itself draws.
const faultSeedOffset = 0x0FA17

// Event is one entry of the injector's fault timeline, in simulated-time
// order.
type Event struct {
	Kind   string  `json:"kind"` // drive-failed | rebuild-started | rebuild-done
	TimeMS float64 `json:"time_ms"`
	Drive  int     `json:"drive"`
}

// Injector arms a run's fault scenario against its disk system and file
// system, schedules the drive-failure arrivals from a dedicated RNG, and
// assembles the end-of-run Report. Build it after the layers exist and
// before the simulation starts; it is single-goroutine like everything
// it touches.
type Injector struct {
	sc   Scenario
	dsys *disk.System
	fsys *fs.FileSystem
	rng  *sim.RNG

	events      []Event
	firstFailMS float64
	lastFailMS  float64
	rebuilds    int64
	rebuildMS   float64 // sum over completed failure→rebuilt cycles
}

// NewInjector validates the scenario against the run's layers, arms them,
// and schedules the initial failure arrivals (the engine is assumed to be
// at time zero). runSeed is the run's main seed; the dedicated fault RNG
// derives from runSeed + Scenario.Seed so fault arrivals can be varied
// independently of the workload.
func NewInjector(sc Scenario, runSeed int64, dsys *disk.System, fsys *fs.FileSystem) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if !sc.Enabled() {
		return nil, fmt.Errorf("fault: scenario is disabled")
	}
	if dsys == nil || fsys == nil {
		return nil, fmt.Errorf("fault: injector needs a disk system and a file system")
	}
	sc = sc.withDefaults()
	if sc.FailsDrive() {
		if dsys.Config().Layout != disk.RAID5 {
			return nil, fmt.Errorf("fault: drive failure requires the raid5 layout, not %v", dsys.Config().Layout)
		}
		if sc.FailDrive >= dsys.Config().NDisks {
			return nil, fmt.Errorf("fault: no drive %d in a %d-drive array", sc.FailDrive, dsys.Config().NDisks)
		}
	}
	inj := &Injector{
		sc:          sc,
		dsys:        dsys,
		fsys:        fsys,
		rng:         sim.NewRNG(runSeed + sc.Seed + faultSeedOffset),
		firstFailMS: -1,
	}
	if err := dsys.ArmFaults(disk.FaultConfig{
		RNG:           inj.rng,
		TransientProb: sc.TransientProb,
		Rebuild:       sc.Rebuild,
		SpareDelayMS:  sc.SpareDelayMS,
		ChunkBytes:    sc.RebuildChunkBytes,
		PauseMS:       sc.RebuildPauseMS,
		OnEvent:       inj.onEvent,
	}); err != nil {
		return nil, err
	}
	if err := fsys.ArmRetries(sc.MaxRetries, sc.RetryBackoffMS, nil); err != nil {
		return nil, err
	}
	if sc.FailAtMS > 0 {
		dsys.After(sc.FailAtMS, inj.fail)
	}
	if sc.MTTFMS > 0 {
		dsys.After(inj.rng.Exp(sc.MTTFMS), inj.fail)
	}
	return inj, nil
}

// fail is the drive-failure arrival: fail the scenario's drive now. A
// second arrival while the array is already degraded is a no-op (one
// spare slot); with MTTF arrivals the next draw is scheduled from the
// rebuild-done event instead, so the arrival process restarts after
// recovery.
func (inj *Injector) fail(now float64) {
	// The layout and drive index were validated at construction; the only
	// remaining "error" is an already-degraded array, which FailDriveNow
	// reports as success.
	_ = inj.dsys.FailDriveNow(inj.sc.FailDrive, now)
}

// onEvent records the disk system's fault transitions and keeps the
// failure/recovery cycle bookkeeping.
func (inj *Injector) onEvent(ev disk.FaultEvent) {
	inj.events = append(inj.events, Event{Kind: ev.Kind.String(), TimeMS: ev.TimeMS, Drive: ev.Drive})
	switch ev.Kind {
	case disk.EventDriveFailed:
		if inj.firstFailMS < 0 {
			inj.firstFailMS = ev.TimeMS
		}
		inj.lastFailMS = ev.TimeMS
	case disk.EventRebuildDone:
		inj.rebuilds++
		inj.rebuildMS += ev.TimeMS - inj.lastFailMS
		if inj.sc.MTTFMS > 0 {
			inj.dsys.After(inj.rng.Exp(inj.sc.MTTFMS), inj.fail)
		}
	}
}

// Report assembles the run's fault report as of simulated time now
// (normally the run's end time).
func (inj *Injector) Report(now float64) *Report {
	ds := inj.dsys.FaultStats(now)
	rs := inj.fsys.RetryStats()
	r := &Report{
		Scenario:        inj.sc,
		DriveFailures:   ds.DriveFailures,
		TransientErrors: ds.TransientErrors,
		DegradedMS:      ds.DegradedMS,
		DegradedAtEnd:   ds.Degraded,
		Rebuilds:        inj.rebuilds,
		RebuildMS:       inj.rebuildMS,
		RebuildBytes:    ds.RebuildBytes,
		RebuildSegments: ds.RebuildSegments,
		Retries:         rs.Retries,
		PermanentErrors: rs.PermanentErrors,
		Events:          inj.events,
	}
	if inj.firstFailMS >= 0 {
		r.FirstFailureMS = inj.firstFailMS
	}
	if h := rs.RetryDelays; h != nil && h.Total() > 0 {
		r.RetriedOps = h.Total()
		r.RetryP50MS = h.Quantile(0.50)
		r.RetryP95MS = h.Quantile(0.95)
	}
	return r
}

// Report is a run's fault outcome: what failed, how long the array ran
// degraded, how the rebuild went, and what the retry path absorbed. Times
// are simulated milliseconds.
type Report struct {
	Scenario Scenario `json:"scenario"`

	DriveFailures  int64   `json:"drive_failures"`
	FirstFailureMS float64 `json:"first_failure_ms,omitempty"`
	// DegradedMS is the total simulated time the array spent degraded;
	// DegradedAtEnd reports whether the run ended still degraded (no
	// rebuild, or rebuild unfinished at the simulated-time cap).
	DegradedMS    float64 `json:"degraded_ms"`
	DegradedAtEnd bool    `json:"degraded_at_end,omitempty"`

	// Rebuilds counts completed failure→rebuilt cycles; RebuildMS sums
	// their failure-to-healed times (the time-to-rebuild).
	Rebuilds        int64   `json:"rebuilds"`
	RebuildMS       float64 `json:"rebuild_ms"`
	RebuildBytes    int64   `json:"rebuild_bytes"`
	RebuildSegments int64   `json:"rebuild_segments"`

	TransientErrors int64 `json:"transient_errors"`
	Retries         int64 `json:"retries"`
	PermanentErrors int64 `json:"permanent_errors"`
	// RetriedOps is the number of requests that failed at least once;
	// RetryP50MS/RetryP95MS bucket their first-failure → completion
	// delays.
	RetriedOps int64   `json:"retried_ops,omitempty"`
	RetryP50MS float64 `json:"retry_p50_ms,omitempty"`
	RetryP95MS float64 `json:"retry_p95_ms,omitempty"`

	Events []Event `json:"events,omitempty"`
}
