package core

import (
	"errors"
	"fmt"

	"rofs/internal/metrics"
)

// TestKind selects one of the §3 tests for a declarative run — the
// exported counterpart of the session-level test kinds, used by the
// runner's Spec layer.
type TestKind int

const (
	// Allocation is the §3 allocation test (fragmentation at the first
	// failed request).
	Allocation TestKind = iota
	// Application is the §3 application performance test.
	Application
	// Sequential is the §3 sequential performance test.
	Sequential
	// AllocationRealloc is the allocation test followed by Koch's nightly
	// reallocator (§4.1's excluded rearranger).
	AllocationRealloc
	// Aging is the long-horizon fragmentation-decay test: create / grow /
	// truncate / delete churn held inside the §2.2 utilization band for
	// days of simulated time, with the free-space shape sampled along the
	// way (Sears & van Ingen's aging methodology). Like the allocation
	// test it measures space, not time, so it runs without disk timing.
	Aging
)

// String implements fmt.Stringer with short identifiers for reports.
func (k TestKind) String() string {
	switch k {
	case Allocation:
		return "alloc"
	case Application:
		return "app"
	case Sequential:
		return "seq"
	case AllocationRealloc:
		return "realloc"
	case Aging:
		return "aging"
	default:
		return fmt.Sprintf("TestKind(%d)", int(k))
	}
}

// ErrCanceled is returned by a run stopped through Config.Cancel before
// its natural termination. Results accompanying it are partial.
var ErrCanceled = errors.New("core: run canceled")

// RunStats reports engine-level counters for one run — the cost of the
// simulation itself, as opposed to the simulated system's results.
type RunStats struct {
	// SimMS is the simulated time reached when the run ended.
	SimMS float64
	// Events is the number of simulator events fired.
	Events uint64
}

// Outcome is the tagged union a declarative Run produces: exactly one of
// Frag, Perf, or Realloc is meaningful, selected by Kind.
type Outcome struct {
	Kind    TestKind
	Frag    FragResult    // Allocation
	Perf    PerfResult    // Application, Sequential
	Realloc ReallocResult // AllocationRealloc
	Aging   AgingResult   // Aging
	Stats   RunStats
	// Metrics is the run's registry (Config.Metrics, finalized); nil when
	// metrics were disabled.
	Metrics *metrics.Registry
}

// Run performs one test of the given kind — the single entry point behind
// RunAllocation, RunApplication, RunSequential, and
// RunAllocationWithReallocation, exposing the engine's run statistics
// alongside the result.
func Run(cfg Config, kind TestKind) (Outcome, error) {
	out := Outcome{Kind: kind}
	var s *Instance
	var err error
	switch kind {
	case Allocation:
		if s, err = newInstance(cfg, allocationTest, nil, 0); err == nil {
			out.Frag, err = s.allocation()
		}
	case Application:
		if s, err = newInstance(cfg, applicationTest, nil, 0); err == nil {
			out.Perf, err = s.perf()
		}
	case Sequential:
		if s, err = newInstance(cfg, sequentialTest, nil, 0); err == nil {
			out.Perf, err = s.perf()
		}
	case AllocationRealloc:
		if s, err = newInstance(cfg, allocationTest, nil, 0); err == nil {
			out.Realloc, err = s.allocationRealloc()
		}
	case Aging:
		if s, err = newInstance(cfg, agingTest, nil, 0); err == nil {
			out.Aging, err = s.aging()
		}
	default:
		return out, fmt.Errorf("core: unknown test kind %d", int(kind))
	}
	if s != nil {
		out.Stats = RunStats{SimMS: s.eng.Now(), Events: s.eng.Fired()}
		s.finalizeMetrics()
		out.Metrics = cfg.Metrics
		if err == nil && s.canceled {
			err = ErrCanceled
		}
	}
	return out, err
}
