// Package service turns the simulator into long-running infrastructure: a
// JSON-over-HTTP server that maps request bodies onto runner.Spec /
// runner.Pool. Submissions pass a bounded admission queue (overload is a
// 503 with Retry-After, never an unbounded backlog), per-request deadlines
// and client disconnects propagate to Config.Cancel, identical concurrent
// Specs coalesce on the pool's Spec.Key() cache, and results — including
// the final rofs-metrics/v1 bundle — stream back over SSE.
//
// Endpoints:
//
//	POST   /v1/runs              submit a run (?wait=1 blocks for the result)
//	GET    /v1/runs              list runs
//	GET    /v1/runs/{id}         one run's status + result
//	DELETE /v1/runs/{id}         cancel a run (also POST /v1/runs/{id}/cancel)
//	GET    /v1/runs/{id}/events  SSE: status heartbeats, then result/error
//	GET    /metrics              server + pool gauges, counters, histograms
//	GET    /healthz              process liveness
//	GET    /readyz               admission readiness (503 while draining)
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"rofs/internal/alloc/extent"
	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/disk"
	"rofs/internal/experiments"
	"rofs/internal/fault"
	"rofs/internal/runner"
	"rofs/internal/units"
	"rofs/internal/workload"
)

// RunRequest is the single run description: the POST /v1/runs body, and
// what rofsim, rofs-client and rofs-sweep fill from their flags (see
// AddRunFlags). It speaks the CLIs' vocabulary, one field per knob; zero
// values take the CLI defaults. Sizes are bytes; the flag binder
// translates "4K"-style flags. Spec is the only code that turns a
// description into a runner.Spec.
type RunRequest struct {
	Policy   string `json:"policy"`          // buddy | rbuddy | extent | fixed
	Workload string `json:"workload"`        // TS | TP | SC
	Test     string `json:"test"`            // alloc | app | seq | aging
	Scale    string `json:"scale,omitempty"` // full | bench (default bench)
	// Seed defaults to 42 when zero, unless set explicitly: a JSON "seed"
	// key, a bound -seed flag, or SetSeed.
	Seed int64  `json:"seed,omitempty"`
	Name string `json:"name,omitempty"` // presentation-only label

	// rbuddy knobs (defaults: 5 sizes, grow 1, clustered).
	Sizes     int     `json:"sizes,omitempty"`
	Grow      float64 `json:"grow,omitempty"`
	Clustered *bool   `json:"clustered,omitempty"`

	// extent knobs (defaults: first fit, 3 ranges).
	Fit    string `json:"fit,omitempty"`
	Ranges int    `json:"ranges,omitempty"`

	// fixed knob (default 4K).
	BlockBytes int64 `json:"block_bytes,omitempty"`

	// Disk overrides.
	Disks       int    `json:"disks,omitempty"`
	Layout      string `json:"layout,omitempty"` // striped | mirrored | raid5 | parity
	StripeBytes int64  `json:"stripe_bytes,omitempty"`
	// Degraded is the legacy spelling of faults.pre_fail with fail_drive
	// 0; Spec parses it to exactly that.
	Degraded bool `json:"degraded,omitempty"`

	// Faults declares the run's fault scenario (see internal/fault); nil
	// or a zero scenario runs fault-free. Drive failures require the
	// raid5 layout.
	Faults *fault.Scenario `json:"faults,omitempty"`

	// Arrivals attaches an open-loop arrival process (Poisson rate or
	// timestamped trace, see internal/workload) to the workload; nil keeps
	// the closed-loop user sessions. Application test only.
	Arrivals *workload.Arrivals `json:"arrivals,omitempty"`

	// Compaction arms the log-structured overlay: foreground segment
	// flushes plus background merges through the same drive queues (see
	// workload.Compaction). Application test only.
	Compaction *workload.Compaction `json:"compaction,omitempty"`

	// Cluster runs the request as an N-instance fleet through the cluster
	// Deployment (see internal/cluster); nil or a zero config runs a plain
	// single-instance simulation. Application test only. The embedded
	// "par" (worker goroutines) and "sync_ms" (lookahead window override)
	// fields flow through with the rest of the config and are validated
	// here; "par" is an execution knob — any value returns byte-identical
	// results and shares one cache entry with the serial run.
	Cluster *cluster.Config `json:"cluster,omitempty"`

	// MaxSimMS overrides the scale's simulated-time cap.
	MaxSimMS float64 `json:"max_sim_ms,omitempty"`

	// StableWindows overrides the stabilization criterion for throughput
	// runs — consecutive in-tolerance windows before the run stops early
	// (default 3; raise it to force runs to the simulated-time cap).
	StableWindows int `json:"stable_windows,omitempty"`

	// TimeoutMS bounds the run's wall time; past it the simulation is
	// canceled and the run fails. Zero means the server's default.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`

	// seedSet marks Seed as given explicitly, so that 0 means seed 0
	// rather than the default.
	seedSet bool
}

// SetSeed sets the run seed explicitly: unlike a bare Seed field, a zero
// here runs seed 0, not the default 42.
func (req *RunRequest) SetSeed(seed int64) {
	req.Seed, req.seedSet = seed, true
}

// UnmarshalJSON decodes a request body strictly (unknown fields are
// errors) and records whether it carried a "seed" key, so that an absent
// seed means 42 and "seed": 0 means seed 0.
func (req *RunRequest) UnmarshalJSON(b []byte) error {
	// Decode through a method-less copy of the type. Naming it RunRequest
	// keeps decode errors worded as they always were.
	type plain RunRequest
	type RunRequest plain
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode((*RunRequest)(req)); err != nil {
		return err
	}
	var seed struct {
		Seed *int64 `json:"seed"`
	}
	if json.Unmarshal(b, &seed) == nil && seed.Seed != nil {
		req.seedSet = true
	}
	return nil
}

// MarshalJSON writes an explicit zero seed as "seed": 0, which the
// omitempty tag would otherwise drop (and the server would read as 42).
func (req RunRequest) MarshalJSON() ([]byte, error) {
	type plain RunRequest
	if !req.seedSet || req.Seed != 0 {
		return json.Marshal(plain(req))
	}
	return json.Marshal(struct {
		plain
		Seed int64 `json:"seed"`
	}{plain: plain(req)})
}

// Spec validates the request and assembles the runner.Spec it declares,
// reusing the experiments.Scale plumbing. It is the one place a run
// description becomes a run: the server calls it per request, and the
// CLIs call it on the request their flags describe, so an invocation and
// the equivalent JSON body build identical Specs (and cache keys) or fail
// with the same message.
func (req *RunRequest) Spec() (runner.Spec, error) {
	return req.spec(nil)
}

// SpecWith is Spec with wl, used as given, in place of the named scaled
// workload: rofsim's -workload-file. The server never offers it, since it
// does not read files named by clients.
func (req *RunRequest) SpecWith(wl workload.Workload) (runner.Spec, error) {
	return req.spec(&wl)
}

func (req *RunRequest) spec(custom *workload.Workload) (runner.Spec, error) {
	var zero runner.Spec

	// Negated comparisons also reject NaN, which a -max-sim flag can spell.
	switch {
	case req.Disks < 0:
		return zero, fmt.Errorf("disks must be non-negative, got %d", req.Disks)
	case req.StripeBytes < 0:
		return zero, fmt.Errorf("stripe_bytes must be non-negative, got %d", req.StripeBytes)
	case !(req.MaxSimMS >= 0):
		return zero, fmt.Errorf("max_sim_ms must be non-negative, got %g", req.MaxSimMS)
	case !(req.TimeoutMS >= 0):
		return zero, fmt.Errorf("timeout_ms must be non-negative, got %g", req.TimeoutMS)
	case req.StableWindows < 0:
		return zero, fmt.Errorf("stable_windows must be non-negative, got %d", req.StableWindows)
	}

	sc, err := experiments.ScaleByName(req.Scale)
	if err != nil {
		return zero, err
	}
	if req.Seed != 0 || req.seedSet {
		sc.Seed = req.Seed
	}
	if req.MaxSimMS > 0 {
		sc.MaxSimMS = req.MaxSimMS
	}
	if req.Disks > 0 {
		sc.Disk.NDisks = req.Disks
	}
	switch strings.ToLower(req.Layout) {
	case "", "striped":
		sc.Disk.Layout = disk.Striped
	case "mirrored":
		sc.Disk.Layout = disk.Mirrored
	case "raid5":
		sc.Disk.Layout = disk.RAID5
	case "parity":
		sc.Disk.Layout = disk.ParityStriped
	default:
		return zero, fmt.Errorf("unknown layout %q (want striped, mirrored, raid5, or parity)", req.Layout)
	}
	if req.StripeBytes > 0 {
		sc.Disk.StripeUnitBytes = req.StripeBytes
	}
	if err := sc.Disk.Validate(); err != nil {
		return zero, err
	}
	var faults fault.Scenario
	if req.Faults != nil {
		faults = *req.Faults
	}
	faults.PreFail = faults.PreFail || req.Degraded
	if err := faults.Validate(); err != nil {
		return zero, err
	}
	switch {
	case req.Degraded && faults.FailDrive != 0:
		return zero, fmt.Errorf("degraded fails drive 0; to pre-fail drive %d, use faults.pre_fail", faults.FailDrive)
	case faults.PreFail && sc.Disk.Layout != disk.RAID5:
		return zero, fmt.Errorf("degraded mode requires the raid5 layout")
	case faults.FailsDrive() && sc.Disk.Layout != disk.RAID5:
		return zero, fmt.Errorf("drive-failure faults require the raid5 layout")
	case (faults.PreFail || faults.FailsDrive()) && faults.FailDrive >= sc.Disk.NDisks:
		return zero, fmt.Errorf("fail_drive %d is outside the %d-drive array", faults.FailDrive, sc.Disk.NDisks)
	}

	var wl workload.Workload
	if custom != nil {
		wl = *custom
	} else if wl, err = sc.Workload(req.Workload); err != nil {
		return zero, err
	}
	if req.Arrivals != nil {
		if req.Arrivals.TraceFile != "" {
			// The server never reads paths named by clients; rofs-client
			// -arrival-trace loads the file and inlines the operations.
			return zero, fmt.Errorf("arrivals trace_file is not accepted over HTTP; send the trace inline (rofs-client -arrival-trace does this)")
		}
		wl.Arrivals = req.Arrivals
		if err := wl.Validate(); err != nil {
			return zero, err
		}
		if req.Test != "app" {
			return zero, fmt.Errorf("open-loop arrivals require the app test, not %q", req.Test)
		}
	}
	if req.Compaction != nil {
		wl.Compact = req.Compaction
		if err := wl.Validate(); err != nil {
			return zero, err
		}
		if req.Test != "app" {
			return zero, fmt.Errorf("the compaction overlay requires the app test, not %q", req.Test)
		}
	}
	var cl cluster.Config
	if req.Cluster != nil {
		cl = *req.Cluster
		if err := cl.Validate(); err != nil {
			return zero, err
		}
		if cl.Enabled() && req.Test != "app" {
			return zero, fmt.Errorf("cluster mode requires the app test, not %q", req.Test)
		}
	}

	var kind core.TestKind
	switch req.Test {
	case "alloc":
		kind = core.Allocation
	case "app":
		kind = core.Application
	case "seq":
		kind = core.Sequential
	case "aging":
		kind = core.Aging
	default:
		return zero, fmt.Errorf("unknown test %q (want alloc, app, seq, or aging)", req.Test)
	}

	var policy core.PolicySpec
	switch req.Policy {
	case "buddy":
		policy = core.Buddy()
	case "rbuddy":
		sizes, grow, clustered := req.Sizes, req.Grow, true
		if sizes == 0 {
			sizes = 5
		}
		if sizes < 2 || sizes > 5 {
			return zero, fmt.Errorf("rbuddy wants 2-5 block sizes, got %d", sizes)
		}
		if grow == 0 {
			grow = 1
		}
		if !(grow >= 1) {
			return zero, fmt.Errorf("rbuddy grow factor must be >= 1, got %g", grow)
		}
		if req.Clustered != nil {
			clustered = *req.Clustered
		}
		policy = core.RBuddy(sizes, grow, clustered)
	case "extent":
		fit := extent.FirstFit
		switch strings.ToLower(req.Fit) {
		case "", "first":
		case "best":
			fit = extent.BestFit
		default:
			return zero, fmt.Errorf("unknown fit %q (want first or best)", req.Fit)
		}
		n := req.Ranges
		if n == 0 {
			n = 3
		}
		ranges, err := sc.ExtentRanges(wl.Name, n)
		if err != nil {
			return zero, err
		}
		policy = core.Extent(fit, ranges)
	case "fixed":
		block := req.BlockBytes
		if block == 0 {
			block = 4 * units.KB
		}
		if block < 0 || block%sc.Disk.UnitBytes != 0 {
			return zero, fmt.Errorf("block_bytes must be a positive multiple of the %d-byte disk unit, got %d",
				sc.Disk.UnitBytes, block)
		}
		policy = core.Fixed(block)
	default:
		return zero, fmt.Errorf("unknown policy %q (want buddy, rbuddy, extent, or fixed)", req.Policy)
	}

	sp := sc.Spec(policy, wl, kind)
	sp.Name = req.Name
	sp.StableWindows = req.StableWindows
	sp.Faults = faults
	sp.Cluster = cl
	return sp, nil
}

// Run states, in lifecycle order. Done, Failed, and Canceled are terminal.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// RunStatus is the GET /v1/runs/{id} document (and the list entries).
type RunStatus struct {
	ID    string `json:"id"`
	Label string `json:"label"`
	State string `json:"state"`
	// TraceID is the request trace that submitted the run — the handle
	// that links this document to the server's access-log record and the
	// X-Rofs-Trace-Id response header.
	TraceID string `json:"trace_id,omitempty"`
	// Error carries the failure or cancellation message in terminal
	// states.
	Error string `json:"error,omitempty"`
	// Result is present once State is done.
	Result *RunResult `json:"result,omitempty"`
	// Position is the run's place in the admission queue while queued
	// (1 = next to start).
	Position int `json:"position,omitempty"`
}

// RunResult is the deterministic payload of a finished run plus its
// serving metadata. Frag/Perf/Stats/Metrics depend only on the Spec (the
// byte-identical contract proved by the service's end-to-end test);
// WallSeconds and Cached describe how this particular submission was
// served.
type RunResult struct {
	Test string `json:"test"`
	// Exactly one of Frag, Perf, and Aging is set, selected by Test.
	Frag  *core.FragResult  `json:"frag,omitempty"`
	Perf  *core.PerfResult  `json:"perf,omitempty"`
	Aging *core.AgingResult `json:"aging,omitempty"`
	Stats core.RunStats     `json:"stats"`
	// Metrics is the run's rofs-metrics/v1 bundle (absent when the server
	// runs with per-run metrics disabled).
	Metrics json.RawMessage `json:"metrics,omitempty"`

	WallSeconds float64 `json:"wall_seconds"`
	Cached      bool    `json:"cached"`
	// Coalesced refines Cached: this submission arrived while an equal
	// Spec was still simulating and shared that run's result.
	Coalesced bool `json:"coalesced,omitempty"`
	// DiskHit reports the result came from the server's disk result store
	// — computed by a prior process, served without simulating.
	DiskHit bool `json:"disk_hit,omitempty"`
	// Disposition names how this submission was served: "simulated",
	// "memory-hit", "coalesced", or "disk-hit". Serving metadata, like
	// WallSeconds — not part of the deterministic payload.
	Disposition string `json:"disposition,omitempty"`
	// Followers counts duplicate submissions this run's result also
	// served (single-flight coalescing), as of when the result was
	// produced.
	Followers int64 `json:"followers,omitempty"`
}

// SubmitResponse is the POST /v1/runs (async) body.
type SubmitResponse struct {
	ID string `json:"id"`
	// StatusURL and EventsURL are the polling and streaming views.
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

// errorJSON is every non-2xx body.
type errorJSON struct {
	Error string `json:"error"`
}
