package core

import (
	"errors"
	"fmt"

	"rofs/internal/metrics"
)

// TestKind selects one of the §3 tests for a run. An instance runs
// Allocation, Application, Sequential or Aging; an AllocationRealloc run
// drives an Allocation instance and then reallocates its files.
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

// spaceOnly reports whether the kind measures space rather than time: the
// disk system is detached (operations complete immediately), latency is
// meaningless, and faults — a timing phenomenon — do not apply.
func (k TestKind) spaceOnly() bool {
	return k == Allocation || k == Aging
}

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

// Outcome is the tagged union a Run produces: exactly one of Frag, Perf,
// Realloc, or Aging is meaningful, selected by Kind.
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

// Run performs one test of the given kind on a fresh instance — the one
// way a single run starts — and reports the engine's run statistics
// alongside the result.
func Run(cfg Config, kind TestKind) (Outcome, error) {
	out := Outcome{Kind: kind}
	instKind := kind // the test the instance runs
	switch kind {
	case Allocation, Application, Sequential, Aging:
	case AllocationRealloc:
		instKind = Allocation // the reallocator works on the disk it fills
	default:
		return out, fmt.Errorf("core: unknown test kind %d", int(kind))
	}
	s, err := newInstance(cfg, instKind, nil, 0)
	if err != nil {
		return out, err
	}
	switch kind {
	case Allocation:
		out.Frag, err = s.allocation()
	case AllocationRealloc:
		out.Realloc, err = s.allocationRealloc()
	case Aging:
		out.Aging, err = s.aging()
	default:
		out.Perf, err = s.perf()
	}
	out.Stats = RunStats{SimMS: s.eng.Now(), Events: s.eng.Fired()}
	s.finalizeMetrics()
	out.Metrics = cfg.Metrics
	if err == nil && s.canceled {
		err = ErrCanceled
	}
	return out, err
}
