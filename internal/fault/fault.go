// Package fault is the disk array's stochastic fault model: a
// deterministic, seeded injector that schedules failure events in
// simulated time — whole-drive failures with fixed-time or exponential
// arrivals, transient media errors with a per-segment error probability,
// and hot-spare rebuild whose background reconstruction I/O competes with
// foreground traffic through the existing per-drive queues.
//
// The paper evaluates allocation policies on a healthy array; this package
// extends the evaluation to the degraded, rebuilding, and retrying states
// real arrays spend part of their life in (the availability and recovery
// tradeoffs of the RAID literature the paper builds on [PATT88]).
//
// The split of responsibilities mirrors the rest of the simulator:
//
//   - Scenario (this file) is pure declarative data — the knobs a
//     runner.Spec, service RunRequest, or CLI flag set carries.
//   - disk.System owns the mechanism: transient-error completion paths,
//     mid-run drive failure, and the throttled rebuild engine.
//   - fs.FileSystem owns bounded retry-with-backoff for failed requests
//     and surfaces permanent failures upward.
//   - Injector (injector.go) owns the policy: it arms the layers, draws
//     the failure arrivals from a dedicated RNG (so the workload's draw
//     sequence is untouched), records the fault event log, and assembles
//     the end-of-run Report.
//
// A zero Scenario is disabled: every hook in the disk and file-system hot
// paths reduces to a nil check, so a fault-off run fires a byte-identical
// event sequence to a build without this package.
package fault

import (
	"fmt"
	"strings"
)

// Scenario declares one run's fault model. The zero value is disabled.
// All times are simulated milliseconds; all sizes are bytes.
type Scenario struct {
	// FailAtMS schedules a whole-drive failure at a fixed simulated time
	// (0: no fixed-time failure).
	FailAtMS float64 `json:"fail_at_ms,omitempty"`
	// MTTFMS schedules whole-drive failures with exponentially distributed
	// arrivals of this mean (0: no stochastic failures). After a completed
	// rebuild the next arrival is drawn again, so long runs can fail and
	// recover repeatedly.
	MTTFMS float64 `json:"mttf_ms,omitempty"`
	// FailDrive selects the drive that fails (default 0). Drive failures
	// require the RAID5 layout — the only layout with a degraded mode.
	FailDrive int `json:"fail_drive,omitempty"`
	// PreFail fails FailDrive before the run begins: the whole run executes
	// in degraded mode (reads reconstruct from the survivors, writes update
	// parity alone). A run description's legacy "degraded" field parses
	// to PreFail with FailDrive 0. PreFail alone does not arm the injector
	// or the retry machinery — it is a static initial condition, not an
	// event.
	PreFail bool `json:"pre_fail,omitempty"`

	// TransientProb is the per-segment probability that a serviced segment
	// completes with a transient media error (0: none). Failed requests
	// are retried by the file system under the retry knobs below.
	TransientProb float64 `json:"transient_prob,omitempty"`

	// Rebuild enables the hot spare: SpareDelayMS after a drive failure a
	// spare swaps in and background reconstruction begins, reading every
	// chunk from the surviving drives and writing it to the spare through
	// the normal per-drive queues. The array leaves degraded mode when the
	// last chunk lands.
	Rebuild bool `json:"rebuild,omitempty"`
	// SpareDelayMS is the hot-spare swap-in delay (default 0: immediate).
	SpareDelayMS float64 `json:"spare_delay_ms,omitempty"`
	// RebuildChunkBytes is the reconstruction granularity (default: one
	// stripe unit).
	RebuildChunkBytes int64 `json:"rebuild_chunk_bytes,omitempty"`
	// RebuildPauseMS throttles the rebuild rate: the pause between one
	// chunk completing and the next being issued (default 0: rebuild at
	// full speed, bounded only by queue competition).
	RebuildPauseMS float64 `json:"rebuild_pause_ms,omitempty"`

	// MaxRetries bounds the file system's retries of a failed request
	// (default 4 when the scenario is enabled). Past the bound the failure
	// is permanent and surfaces to the harness.
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoffMS is the base retry backoff, doubling per attempt
	// (default 5 ms of simulated time).
	RetryBackoffMS float64 `json:"retry_backoff_ms,omitempty"`

	// Seed offsets the dedicated fault RNG from the run seed, so fault
	// arrivals can be varied independently of the workload (0: derived
	// from the run seed alone).
	Seed int64 `json:"seed,omitempty"`
}

// Enabled reports whether the scenario injects any fault at all. A
// disabled scenario leaves every layer's fault hooks unarmed.
func (s Scenario) Enabled() bool {
	return s.FailAtMS > 0 || s.MTTFMS > 0 || s.TransientProb > 0
}

// FailsDrive reports whether the scenario includes whole-drive failures
// (which require the RAID5 layout).
func (s Scenario) FailsDrive() bool { return s.FailAtMS > 0 || s.MTTFMS > 0 }

// Validate checks the scenario for internal consistency.
func (s Scenario) Validate() error {
	// Negated comparisons also reject NaN, which a float flag can spell.
	switch {
	case !(s.FailAtMS >= 0):
		return fmt.Errorf("fault: FailAtMS %g must be >= 0", s.FailAtMS)
	case !(s.MTTFMS >= 0):
		return fmt.Errorf("fault: MTTFMS %g must be >= 0", s.MTTFMS)
	case s.FailDrive < 0:
		return fmt.Errorf("fault: FailDrive %d must be >= 0", s.FailDrive)
	case !(s.TransientProb >= 0 && s.TransientProb <= 1):
		return fmt.Errorf("fault: TransientProb %g outside [0, 1]", s.TransientProb)
	case !(s.SpareDelayMS >= 0):
		return fmt.Errorf("fault: SpareDelayMS %g must be >= 0", s.SpareDelayMS)
	case s.RebuildChunkBytes < 0:
		return fmt.Errorf("fault: RebuildChunkBytes %d must be >= 0", s.RebuildChunkBytes)
	case !(s.RebuildPauseMS >= 0):
		return fmt.Errorf("fault: RebuildPauseMS %g must be >= 0", s.RebuildPauseMS)
	case s.MaxRetries < 0:
		return fmt.Errorf("fault: MaxRetries %d must be >= 0", s.MaxRetries)
	case !(s.RetryBackoffMS >= 0):
		return fmt.Errorf("fault: RetryBackoffMS %g must be >= 0", s.RetryBackoffMS)
	case s.Rebuild && !s.FailsDrive():
		return fmt.Errorf("fault: Rebuild needs a drive failure (FailAtMS or MTTFMS)")
	case s.PreFail && s.FailsDrive():
		return fmt.Errorf("fault: PreFail starts the run with FailDrive dead; combining it with scheduled drive failures (FailAtMS/MTTFMS) would fail a second drive, which RAID5 cannot survive")
	}
	return nil
}

// withDefaults returns the scenario with the retry knobs defaulted — the
// values an enabled scenario runs with when the caller left them zero.
func (s Scenario) withDefaults() Scenario {
	if !s.Enabled() {
		return s
	}
	if s.MaxRetries == 0 {
		s.MaxRetries = 4
	}
	if s.RetryBackoffMS == 0 {
		s.RetryBackoffMS = 5
	}
	return s
}

// Key renders the scenario's canonical identity for runner.Spec cache
// keys. Scenarios that neither inject events nor pre-fail a drive render
// empty, so fault-free Specs keep the key encoding they had before this
// package existed; the prefail term appends only when set, preserving
// pre-PreFail keys the same way.
func (s Scenario) Key() string {
	if !s.Enabled() && !s.PreFail {
		return ""
	}
	key := fmt.Sprintf("failat=%g|mttf=%g|drive=%d|tp=%g|rebuild=%t|spare=%g|chunk=%d|pause=%g|retries=%d|backoff=%g|fseed=%d",
		s.FailAtMS, s.MTTFMS, s.FailDrive, s.TransientProb, s.Rebuild,
		s.SpareDelayMS, s.RebuildChunkBytes, s.RebuildPauseMS,
		s.MaxRetries, s.RetryBackoffMS, s.Seed)
	if s.PreFail {
		key += "|prefail=true"
	}
	return key
}

// String summarizes the scenario for progress lines and reports.
func (s Scenario) String() string {
	if !s.Enabled() && !s.PreFail {
		return "none"
	}
	var parts []string
	if s.PreFail {
		parts = append(parts, fmt.Sprintf("prefail d%d", s.FailDrive))
	}
	if s.FailAtMS > 0 {
		parts = append(parts, fmt.Sprintf("fail d%d@%gms", s.FailDrive, s.FailAtMS))
	}
	if s.MTTFMS > 0 {
		parts = append(parts, fmt.Sprintf("mttf %gms", s.MTTFMS))
	}
	if s.TransientProb > 0 {
		parts = append(parts, fmt.Sprintf("transient %g", s.TransientProb))
	}
	if s.Rebuild {
		parts = append(parts, "rebuild")
	}
	return strings.Join(parts, " ")
}
