// Package runner turns the repository's simulations into declarative
// work: a Spec names one run (policy × workload × test × scale × seed)
// and a Pool executes a batch of Specs on a bounded set of workers.
//
// Every core session owns its engine, RNG, disk system, and file-system
// state, so runs share nothing and parallel execution is bit-for-bit
// identical to serial execution for a fixed seed — the pool's contract,
// proved by the determinism test. Identical Specs (by canonical key) are
// simulated once per process and served from the pool's cache after
// that, so configurations shared between tables cost one simulation.
package runner

import (
	"fmt"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/disk"
	"rofs/internal/fault"
	"rofs/internal/workload"
)

// Spec declares one simulation run. It carries everything a core.Config
// needs; construction of the Config happens behind Config(), so callers
// only ever describe runs, never assemble them.
type Spec struct {
	// Name optionally overrides the derived Label in progress output. It
	// is not part of the canonical key.
	Name string

	// TraceID carries the request trace that submitted this Spec (see
	// internal/obs) so the serving layer can correlate a run with its
	// access-log record. Like Name it is presentation-only: excluded from
	// the canonical key, so traced and untraced submissions of the same
	// simulation share one cache entry.
	TraceID string

	Disk     disk.Config
	Policy   core.PolicySpec
	Workload workload.Workload
	Kind     core.TestKind
	Seed     int64

	// MaxSimMS caps throughput runs (0: the core default).
	MaxSimMS float64
	// StableWindows overrides how many consecutive in-tolerance windows
	// count as a stabilized throughput run (0: the core default of 3).
	StableWindows int
	// Degraded fails drive 0 before the run (RAID-5 only). It is the
	// legacy alias for Faults.PreFail with FailDrive 0.
	Degraded bool
	// Faults declares the run's fault scenario (zero: no faults).
	Faults fault.Scenario
	// Cluster, when enabled, runs the Spec as an N-instance fleet through
	// the cluster Deployment (zero: plain single-instance run).
	// Cluster.Parallelism additionally fans the fleet's per-instance
	// engines across worker goroutines *inside* the one runner job — it
	// composes with the Pool's own jobs-level parallelism, and because a
	// fleet's schedule is fixed by the configuration alone, the result
	// (and the cache entry under Key, which excludes Parallelism) is
	// byte-identical at every combination of jobs and Parallelism.
	Cluster cluster.Config
}

// Config assembles the core.Config the Spec declares.
func (s Spec) Config() core.Config {
	return core.Config{
		Disk:          s.Disk,
		Policy:        s.Policy,
		Workload:      s.Workload,
		Seed:          s.Seed,
		MaxSimMS:      s.MaxSimMS,
		StableWindows: s.StableWindows,
		Degraded:      s.Degraded,
		Faults:        s.Faults,
	}
}

// Key returns the Spec's canonical identity: two Specs with equal keys
// describe the same simulation and may share one result. Every field
// that influences the run is folded in; Name is presentation-only and
// excluded. The encodings are plain-value struct dumps, deterministic
// because the underlying configurations hold no maps or pointers.
func (s Spec) Key() string {
	// Workload renders through KeyString, which matches the historical
	// two-field %+v dump byte-for-byte and appends an arrivals term only
	// when an open-loop process is configured — a raw %+v would render the
	// Arrivals pointer as an address and break key determinism.
	key := fmt.Sprintf("%s|%+v|%+v|%s|seed=%d|max=%g|sw=%d|deg=%t",
		s.Kind, s.Policy, s.Disk, s.Workload.KeyString(), s.Seed, s.MaxSimMS, s.StableWindows, s.Degraded)
	// The fault term is appended only for enabled scenarios, so fault-free
	// Specs keep the key encoding they had before faults existed (pinned
	// by the spec-key golden test).
	if fk := s.Faults.Key(); fk != "" {
		key += "|faults{" + fk + "}"
	}
	// Likewise the cluster term exists only for fleet runs.
	if ck := s.Cluster.Key(); ck != "" {
		key += "|cluster{" + ck + "}"
	}
	return key
}

// Label returns the short human-readable name progress lines use:
// Name when set, else policy/workload/test.
func (s Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("%s/%s/%s", s.Policy.Name(), s.Workload.Name, s.Kind)
}
