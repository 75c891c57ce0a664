// Command rofs-bench runs a pinned benchmark grid over the simulator and
// emits a machine-readable JSON report — the tracked artifact (BENCH_*.json
// at the repository root) that performance PRs regenerate so reviewers see
// events/sec, ns/event, and allocs/event move.
//
// Two layers are measured:
//
//   - the engine microbenchmarks (self-firing event and a 256-deep queue),
//     via testing.Benchmark — the pure event-loop cost with no simulated
//     file system behind it; and
//   - full simulations on the bench scale, one cell per workload × policy
//     × test, timed in-process with allocation counters read around the
//     run.
//
// Cells run sequentially (never in parallel) so wall-clock timings are not
// distorted by scheduler contention; a warm-up cell absorbs one-time costs
// before measurement starts.
//
// Usage:
//
//	rofs-bench -out bench.json              # the full pinned grid to a file
//	rofs-bench -short                       # CI smoke subset to stdout
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"testing"
	"time"

	"rofs/internal/alloc/extent"
	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/experiments"
	"rofs/internal/metrics"
	"rofs/internal/prof"
	"rofs/internal/runner"
	"rofs/internal/sim"
	"rofs/internal/workload"
)

// engineResult is one microbenchmark row.
type engineResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// cellResult is one simulation cell of the grid.
type cellResult struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	Test     string `json:"test"`
	// Instances marks the fleet cells (cluster mode); 0 is a plain run.
	Instances int `json:"instances,omitempty"`
	// Par is the fleet's worker-goroutine count (Cluster.Parallelism);
	// 0 is the serial executor. Results are byte-identical either way —
	// only the wall-clock figures move.
	Par int `json:"par,omitempty"`
	// GOMAXPROCS records the scheduler width in effect for this cell:
	// fleet cells pin it (1 for the serial baseline, all cores for the
	// parallel cells) so speedups are attributable; plain cells inherit
	// the process setting.
	GOMAXPROCS int `json:"gomaxprocs"`

	Events       uint64  `json:"events"`
	SimMS        float64 `json:"sim_ms"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerEvent   float64 `json:"ns_per_event"`
	// AllocsPerEvent and BytesPerEvent count heap activity for the whole
	// run (including setup) divided by events fired, from runtime.MemStats
	// deltas around the run.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`

	// Metric is the cell's simulated result — percent of maximum
	// throughput for perf tests, internal fragmentation percent for the
	// allocation test — carried along as a sanity check that optimization
	// PRs did not change what is being simulated.
	Metric float64 `json:"metric"`
}

// poolResult reports the parallel saturation pass: the timed grid
// resubmitted through an instrumented runner.Pool (each cell twice, so
// the second submission exercises the result cache). It tracks how far
// the pool layer is from the sequential cells' aggregate wall time and
// whether its queue/in-flight accounting saturates the workers.
type poolResult struct {
	Jobs           int     `json:"jobs"`
	Runs           int     `json:"runs"`
	WallSeconds    float64 `json:"wall_seconds"`
	Submitted      int64   `json:"submitted"`
	Simulated      int64   `json:"simulated"`
	Cached         int64   `json:"cached"`
	Failed         int64   `json:"failed"`
	PeakInFlight   int64   `json:"peak_in_flight"`
	PeakQueueDepth int64   `json:"peak_queue_depth"`
}

// reportJSON is the whole artifact.
type reportJSON struct {
	Schema     string         `json:"schema"`
	Scale      string         `json:"scale"`
	Seed       int64          `json:"seed"`
	Short      bool           `json:"short"`
	GoVersion  string         `json:"go_version"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Engine     []engineResult `json:"engine"`
	Cells      []cellResult   `json:"cells"`
	Pool       *poolResult    `json:"pool,omitempty"`
}

func main() {
	var (
		outFlag   = flag.String("out", "-", "output file (- for stdout)")
		shortFlag = flag.Bool("short", false, "run the reduced CI smoke grid")
		seedFlag  = flag.Int64("seed", 42, "simulation seed")
		poolJobs  = flag.Int("pool-jobs", runtime.GOMAXPROCS(0),
			"workers for the parallel pool saturation pass (0 or negative skips it)")

		// Enabling -metrics adds sampling events to each run, so the
		// reported events/sec are not comparable with metrics-off artifacts;
		// use it for inspecting cells, not for the tracked BENCH_*.json.
		metricsFlag    = flag.String("metrics", "", "write one metrics bundle per cell into this directory")
		metricsFmtFlag = flag.String("metrics-format", "json", "bundle encoding: json | csv | prom")
		metricsIntFlag = flag.Float64("metrics-interval", metrics.DefaultIntervalMS, "timeline sampling interval (simulated ms)")

		cpuProfFlag  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfFlag  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		execTraceFlg = flag.String("exectrace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancel the context: the current cell stops at its
	// next operation, already-measured rows stay on stderr, and the process
	// exits nonzero without writing a partial artifact.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stopProf, err := prof.Start(prof.Flags{CPUProfile: *cpuProfFlag, MemProfile: *memProfFlag, Trace: *execTraceFlg})
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "rofs-bench: %v\n", err)
		}
	}()

	sc := experiments.BenchScale()
	sc.Seed = *seedFlag

	// v2 adds per-cell gomaxprocs/par and the parallel fleet cells; plain
	// cells are unchanged from v1.
	rep := reportJSON{
		Schema:     "rofs-bench/v2",
		Scale:      sc.Name,
		Seed:       sc.Seed,
		Short:      *shortFlag,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	fmt.Fprintf(os.Stderr, "rofs-bench: engine microbenchmarks\n")
	rep.Engine = engineBenchmarks(*shortFlag)
	for _, e := range rep.Engine {
		fmt.Fprintf(os.Stderr, "  %-24s %8.2f ns/op  %3d allocs/op  %4d B/op\n",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
	}

	specs, err := grid(sc, *shortFlag)
	if err != nil {
		fatal("%v", err)
	}

	// Warm-up: run the first cell once untimed so lazy one-time costs
	// (page faults, first GC sizing) land outside the measurements.
	if len(specs) > 0 {
		cfg := specs[0].Config()
		cfg.Cancel = ctx.Done()
		if _, err := core.Run(cfg, specs[0].Kind); err != nil {
			if ctx.Err() != nil {
				fatal("interrupted (%v)", ctx.Err())
			}
			fatal("warm-up %s: %v", specs[0].Label(), err)
		}
	}

	metricsFmt, err := metrics.ParseFormat(*metricsFmtFlag)
	if err != nil {
		fatal("%v", err)
	}

	fmt.Fprintf(os.Stderr, "rofs-bench: %d simulation cells (scale=%s, seed=%d)\n",
		len(specs), sc.Name, sc.Seed)
	for _, sp := range specs {
		var reg *metrics.Registry
		if *metricsFlag != "" {
			reg = metrics.New(*metricsIntFlag)
		}
		// Fleet cells pin GOMAXPROCS to 1: the serial executor is the
		// baseline the parallel pass below is compared against, and a
		// single P keeps its wall clock free of GC assist jitter from
		// idle Ps.
		prevProcs := 0
		if sp.Cluster.Enabled() {
			prevProcs = runtime.GOMAXPROCS(1)
		}
		cell, err := measure(sp, reg, ctx.Done())
		if prevProcs > 0 {
			runtime.GOMAXPROCS(prevProcs)
		}
		if err != nil {
			if ctx.Err() != nil {
				fatal("interrupted during %s (%v); measured cells above", sp.Label(), ctx.Err())
			}
			fatal("%s: %v", sp.Label(), err)
		}
		if *metricsFlag != "" {
			if _, err := runner.SaveMetrics(*metricsFlag, metricsFmt, sp.Label(), reg); err != nil {
				fatal("%v", err)
			}
		}
		rep.Cells = append(rep.Cells, cell)
		fmt.Fprintf(os.Stderr, "  %-28s %9d events  %8.0f events/sec  %7.1f ns/event  %6.2f allocs/event\n",
			sp.Label(), cell.Events, cell.EventsPerSec, cell.NsPerEvent, cell.AllocsPerEvent)
	}

	if !*shortFlag {
		// Parallel fleet pass: the cluster cells again with the fleet's
		// engines fanned across worker goroutines and the scheduler opened
		// to every core. The simulated results are byte-identical to the
		// serial cells above (the executor's contract); only events/sec
		// moves, and the serial-vs-parallel pairing in the artifact is what
		// makes the speedup reviewable.
		fleet, err := parallelFleetSpecs(sc)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "rofs-bench: %d parallel fleet cells (gomaxprocs=%d)\n",
			len(fleet), runtime.NumCPU())
		prevProcs := runtime.GOMAXPROCS(runtime.NumCPU())
		for _, sp := range fleet {
			cell, err := measure(sp, nil, ctx.Done())
			if err != nil {
				if ctx.Err() != nil {
					fatal("interrupted during %s (%v); measured cells above", sp.Label(), ctx.Err())
				}
				fatal("%s: %v", sp.Label(), err)
			}
			rep.Cells = append(rep.Cells, cell)
			fmt.Fprintf(os.Stderr, "  %-28s %9d events  %8.0f events/sec  %7.1f ns/event  %6.2f allocs/event\n",
				sp.Label(), cell.Events, cell.EventsPerSec, cell.NsPerEvent, cell.AllocsPerEvent)
		}
		runtime.GOMAXPROCS(prevProcs)
	}

	if *poolJobs > 0 {
		pr, err := poolPass(ctx, specs, *poolJobs)
		if err != nil {
			if ctx.Err() != nil {
				fatal("interrupted during pool pass (%v)", ctx.Err())
			}
			fatal("pool pass: %v", err)
		}
		rep.Pool = &pr
		fmt.Fprintf(os.Stderr,
			"rofs-bench: pool pass: %d runs in %.2fs on %d workers (%d simulated, %d cached, %d failed), peak in-flight %d, peak queue %d\n",
			pr.Runs, pr.WallSeconds, pr.Jobs, pr.Simulated, pr.Cached, pr.Failed,
			pr.PeakInFlight, pr.PeakQueueDepth)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	buf = append(buf, '\n')
	if *outFlag == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*outFlag, buf, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "rofs-bench: wrote %s\n", *outFlag)
}

// grid declares the pinned cells. The full grid crosses the three
// workloads with four allocation policies on the application and
// sequential tests; -short keeps one application cell per workload.
func grid(sc experiments.Scale, short bool) ([]runner.Spec, error) {
	policies := []core.PolicySpec{
		core.Buddy(),
		core.RBuddy(5, 1, true),
	}
	tests := []core.TestKind{core.Application, core.Sequential}
	workloads := []string{"TS", "TP", "SC"}
	if short {
		policies = policies[:1]
		tests = tests[:1]
	}

	var specs []runner.Spec
	for _, wlName := range workloads {
		wl, err := sc.Workload(wlName)
		if err != nil {
			return nil, err
		}
		for _, p := range policies {
			for _, k := range tests {
				specs = append(specs, sc.Spec(p, wl, k))
			}
		}
		if !short {
			// The extent policy's size ranges are workload-specific.
			ranges, err := sc.ExtentRanges(wlName, 3)
			if err != nil {
				return nil, err
			}
			specs = append(specs, sc.Spec(core.Extent(extent.FirstFit, ranges), wl, core.Application))
			// The allocation test exercises the policy layer without the
			// disk system — a different hot loop worth tracking.
			specs = append(specs, sc.Spec(core.RBuddy(5, 1, true), wl, core.Allocation))
		}
	}
	if !short {
		// Cluster cells: the fleet dispatch path at N=1/4/16 under open-loop
		// TP load proportional to the fleet, so per-instance pressure is
		// constant and the numbers isolate the Deployment's overhead.
		for _, n := range fleetSizes {
			sp, err := fleetSpec(sc, n, 0)
			if err != nil {
				return nil, err
			}
			specs = append(specs, sp)
		}
	}
	return specs, nil
}

// fleetSizes is the cluster grid: one instance (the delegation path),
// a small fleet, and one wide enough that parallel execution has
// something to fan out.
var fleetSizes = []int{1, 4, 16}

// fleetSpec builds one cluster cell: N instances under open-loop TP load
// proportional to the fleet, with par worker goroutines (0: serial).
func fleetSpec(sc experiments.Scale, n, par int) (runner.Spec, error) {
	wl, err := sc.Workload("TP")
	if err != nil {
		return runner.Spec{}, err
	}
	wl.Arrivals = &workload.Arrivals{RatePerSec: 100 * float64(n)}
	sp := sc.Spec(core.RBuddy(5, 1, true), wl, core.Application)
	sp.Cluster = cluster.Config{Instances: n, Parallelism: par}
	if par > 0 {
		sp.Name = fmt.Sprintf("cluster-n%d-par%d/TP/app", n, par)
	} else {
		sp.Name = fmt.Sprintf("cluster-n%d/TP/app", n)
	}
	return sp, nil
}

// parallelFleetSpecs returns the parallel counterparts of the grid's
// cluster cells: the same configurations (same Spec.Key, byte-identical
// results) with one worker per instance.
func parallelFleetSpecs(sc experiments.Scale) ([]runner.Spec, error) {
	var specs []runner.Spec
	for _, n := range fleetSizes {
		sp, err := fleetSpec(sc, n, n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// poolPass resubmits the timed grid through an instrumented runner.Pool —
// every cell twice, so the duplicate hits the result cache — and snapshots
// the pool's saturation stats. This is the same pool layer rofs-server
// serves from, measured under the same cells the sequential pass timed.
func poolPass(ctx context.Context, specs []runner.Spec, jobs int) (poolResult, error) {
	doubled := make([]runner.Spec, 0, 2*len(specs))
	doubled = append(doubled, specs...)
	doubled = append(doubled, specs...)
	pool := runner.New(jobs)
	start := time.Now()
	if _, err := pool.Run(ctx, doubled); err != nil {
		return poolResult{}, err
	}
	st := pool.Stats()
	return poolResult{
		Jobs:           jobs,
		Runs:           len(doubled),
		WallSeconds:    time.Since(start).Seconds(),
		Submitted:      st.Submitted,
		Simulated:      st.Simulated,
		Cached:         st.Cached,
		Failed:         st.Failed,
		PeakInFlight:   st.PeakInFlight,
		PeakQueueDepth: st.PeakQueueDepth,
	}, nil
}

// measure runs one cell sequentially, in-process, with allocation
// counters read around the run. A non-nil reg attaches a metrics registry
// to the run (which adds its sampling events to the measured counts).
// cancel aborts the run between operations (the Ctrl-C path).
func measure(sp runner.Spec, reg *metrics.Registry, cancel <-chan struct{}) (cellResult, error) {
	cfg := sp.Config()
	cfg.Metrics = reg
	cfg.Cancel = cancel

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var out core.Outcome
	var err error
	if sp.Cluster.Enabled() {
		out, err = cluster.Run(cfg, sp.Cluster, sp.Kind)
	} else {
		out, err = core.Run(cfg, sp.Kind)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return cellResult{}, err
	}

	events := out.Stats.Events
	cell := cellResult{
		Workload:    sp.Workload.Name,
		Policy:      sp.Policy.Name(),
		Test:        sp.Kind.String(),
		Instances:   sp.Cluster.Instances,
		Par:         sp.Cluster.Parallelism,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Events:      events,
		SimMS:       out.Stats.SimMS,
		WallSeconds: wall.Seconds(),
	}
	if events > 0 {
		cell.EventsPerSec = float64(events) / wall.Seconds()
		cell.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
		cell.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
		cell.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
	}
	switch sp.Kind {
	case core.Allocation:
		cell.Metric = out.Frag.InternalPct
	default:
		cell.Metric = out.Perf.Percent
	}
	return cell, nil
}

// engineBenchmarks measures the bare event loop via testing.Benchmark —
// the same shapes as the sim package's benchmarks, reproduced here so the
// JSON artifact is self-contained.
func engineBenchmarks(short bool) []engineResult {
	convert := func(name string, r testing.BenchmarkResult) engineResult {
		return engineResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	out := []engineResult{
		convert("engine/self-fire", testing.Benchmark(func(b *testing.B) {
			var e sim.Engine
			remaining := b.N
			var fire sim.Handler
			fire = func(float64) {
				remaining--
				if remaining > 0 {
					e.After(1, fire)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.At(0, fire)
			e.Run(math.Inf(1))
		})),
	}
	if !short {
		out = append(out, convert("engine/depth-256", testing.Benchmark(func(b *testing.B) {
			var e sim.Engine
			const depth = 256
			remaining := b.N
			rng := sim.NewRNG(1)
			var fire sim.Handler
			fire = func(float64) {
				remaining--
				if remaining > 0 {
					e.After(rng.Exp(10), fire)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < depth; i++ {
				e.At(rng.Exp(10), fire)
			}
			e.Run(math.Inf(1))
		})))
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rofs-bench: "+format+"\n", args...)
	os.Exit(1)
}
