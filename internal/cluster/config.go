// Package cluster scales the simulator from one file server to a fleet: a
// Deployment instantiates N independent core.Instances (each its own disk
// array, allocator, and file system, with an RNG stream derived from the
// run seed and the instance index) on per-instance sim.Engines, and routes
// an open-loop arrival stream through pluggable admission and routing
// policies. The model follows the deployment layer of LLM inference
// simulators — a DeploymentConfig with NumInstances, an AdmissionPolicy,
// a RoutingPolicy, and a snapshot-refresh interval that makes the
// router's view of instance load deliberately stale — transplanted onto
// the paper's read-optimized file servers.
//
// Everything stays deterministic: one simulated clock, per-instance RNG
// streams, and policies that break ties by lowest index. Two runs with
// the same seed and configuration produce byte-identical reports, the
// same contract every other layer of this repository holds.
package cluster

import (
	"fmt"
)

// Routing policy names.
const (
	// RouteRoundRobin cycles arrivals across instances in index order.
	RouteRoundRobin = "rr"
	// RouteLeastLoaded sends each arrival to the instance with the fewest
	// in-flight operations in the router's (possibly stale) load snapshot.
	RouteLeastLoaded = "least"
	// RouteAffinity hashes the arrival's client key to an instance, so a
	// client's operations always land on the same member.
	RouteAffinity = "affinity"
)

// Admission policy names (empty admits everything).
const (
	// AdmitTokenBucket refills TokenRefillPerSec tokens per second up to
	// TokenCapacity; an arrival without a token is rejected.
	AdmitTokenBucket = "token"
	// AdmitQueue bounds total in-flight operations at QueueCap; arrivals
	// beyond capacity are rejected (reject-beyond-capacity, not waiting).
	AdmitQueue = "queue"
)

// Config declares a fleet run. The zero value is disabled (plain
// single-instance semantics everywhere).
type Config struct {
	// Instances is the fleet size (0: cluster mode off; 1: a fleet of one,
	// which for closed-loop workloads delegates to the plain core run and
	// reproduces it byte-identically).
	Instances int `json:"instances"`

	// Routing selects the routing policy ("" = rr). Only open-loop fleets
	// route; closed-loop fleets pin each user population to its instance.
	Routing string `json:"routing,omitempty"`
	// SnapshotMS is the refresh interval of the least-loaded router's load
	// snapshot (0: always fresh). A nonzero value models the stale view a
	// real load balancer polls, and lets experiments measure how staleness
	// degrades balance.
	SnapshotMS float64 `json:"snapshot_ms,omitempty"`

	// Admission selects the admission policy ("" = admit everything).
	Admission string `json:"admission,omitempty"`
	// TokenCapacity and TokenRefillPerSec parameterize the token bucket.
	TokenCapacity     float64 `json:"token_capacity,omitempty"`
	TokenRefillPerSec float64 `json:"token_refill_per_s,omitempty"`
	// QueueCap bounds fleet-wide in-flight operations for AdmitQueue.
	QueueCap int `json:"queue_cap,omitempty"`

	// FaultInstance selects which member a fault scenario targets
	// (default 0). The other members run fault-free.
	FaultInstance int `json:"fault_instance,omitempty"`

	// Parallelism is the number of worker goroutines that prime the fleet
	// and advance its per-instance engines (0 or 1: serial; capped at the
	// fleet size). The independent and batched execution tiers use them;
	// the windowed tier runs its engines serially (see parallel.go). It is
	// an execution knob, not a model knob: the schedule — window
	// boundaries, routing, admission, merge order — is fixed by the
	// configuration alone, so any Parallelism value produces byte-
	// identical results. For that reason it is deliberately excluded from
	// Key: a cached serial result answers a parallel request and vice
	// versa.
	Parallelism int `json:"par,omitempty"`

	// SyncMS overrides the conservative-lookahead window for open-loop
	// fleets whose coupling grid would otherwise default to 100 ms (see
	// Deployment). It is a model knob — bounded-queue releases and fresh
	// least-loaded counts are observed at window boundaries — so unlike
	// Parallelism it participates in Key when set.
	SyncMS float64 `json:"sync_ms,omitempty"`
}

// Enabled reports whether the run is a cluster run at all.
func (c Config) Enabled() bool { return c.Instances > 0 }

// EffectiveRouting resolves the default routing policy name.
func (c Config) EffectiveRouting() string {
	if c.Routing == "" {
		return RouteRoundRobin
	}
	return c.Routing
}

// Validate checks the configuration.
func (c Config) Validate() error {
	// Negated comparisons also reject NaN, which a float flag can spell;
	// the float knobs are checked whether or not the fleet is enabled.
	switch {
	case c.Instances < 0:
		return fmt.Errorf("cluster: Instances %d must be >= 0", c.Instances)
	case !(c.SnapshotMS >= 0):
		return fmt.Errorf("cluster: SnapshotMS %g must be >= 0", c.SnapshotMS)
	case !(c.SyncMS >= 0):
		return fmt.Errorf("cluster: SyncMS %g must be >= 0", c.SyncMS)
	case !(c.TokenCapacity >= 0 && c.TokenRefillPerSec >= 0):
		return fmt.Errorf("cluster: TokenCapacity %g and TokenRefillPerSec %g must be >= 0", c.TokenCapacity, c.TokenRefillPerSec)
	}
	if !c.Enabled() {
		return nil
	}
	switch {
	case c.FaultInstance < 0 || c.FaultInstance >= c.Instances:
		return fmt.Errorf("cluster: FaultInstance %d outside fleet [0, %d)", c.FaultInstance, c.Instances)
	case c.Parallelism < 0:
		return fmt.Errorf("cluster: Parallelism %d must be >= 0", c.Parallelism)
	}
	switch c.EffectiveRouting() {
	case RouteRoundRobin, RouteLeastLoaded, RouteAffinity:
	default:
		return fmt.Errorf("cluster: unknown routing policy %q (want rr, least, or affinity)", c.Routing)
	}
	switch c.Admission {
	case "":
	case AdmitTokenBucket:
		if !(c.TokenCapacity > 0 && c.TokenRefillPerSec > 0) {
			return fmt.Errorf("cluster: token-bucket admission needs TokenCapacity and TokenRefillPerSec > 0")
		}
	case AdmitQueue:
		if c.QueueCap <= 0 {
			return fmt.Errorf("cluster: queue admission needs QueueCap > 0")
		}
	default:
		return fmt.Errorf("cluster: unknown admission policy %q (want token or queue)", c.Admission)
	}
	return nil
}

// Key renders the configuration's canonical identity for runner.Spec
// cache keys. Disabled configs render empty, so non-cluster Specs keep
// the key encoding they had before this package existed; likewise SyncMS
// appends only when set, so pre-existing fleet keys are stable.
// Parallelism never appears: the schedule is identical at every worker
// count, so serial and parallel runs share one cache entry.
func (c Config) Key() string {
	if !c.Enabled() {
		return ""
	}
	k := fmt.Sprintf("n=%d|route=%s|snap=%g|admit=%s|tokcap=%g|tokrate=%g|qcap=%d|finst=%d",
		c.Instances, c.EffectiveRouting(), c.SnapshotMS, c.Admission,
		c.TokenCapacity, c.TokenRefillPerSec, c.QueueCap, c.FaultInstance)
	if c.SyncMS > 0 {
		k += fmt.Sprintf("|sync=%g", c.SyncMS)
	}
	return k
}

// String summarizes the configuration for progress lines and reports.
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	s := fmt.Sprintf("n=%d %s", c.Instances, c.EffectiveRouting())
	if c.SnapshotMS > 0 {
		s += fmt.Sprintf(" snap=%gms", c.SnapshotMS)
	}
	if c.Admission != "" {
		s += " " + c.Admission
	}
	return s
}
