// Command rofsim runs a single simulation: one allocation policy, one
// workload, one test — the building block the paper's evaluation grids
// are made of.
//
// Examples:
//
//	rofsim -policy rbuddy -sizes 5 -grow 1 -clustered -workload TS -test alloc
//	rofsim -policy extent -fit best -ranges 3 -workload TP -test seq -scale full
//	rofsim -policy fixed -block 16K -workload SC -test app
//	rofsim -policy buddy -workload SC -test app -layout raid5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rofs/internal/alloc/extent"
	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/disk"
	"rofs/internal/experiments"
	"rofs/internal/fault"
	"rofs/internal/metrics"
	"rofs/internal/prof"
	"rofs/internal/units"
	"rofs/internal/workload"
)

func main() {
	var (
		policyFlag   = flag.String("policy", "rbuddy", "buddy | rbuddy | extent | fixed")
		workloadFlag = flag.String("workload", "TS", "TS | TP | SC")
		testFlag     = flag.String("test", "alloc", "alloc | app | seq | aging")
		scaleFlag    = flag.String("scale", "bench", "full | bench")
		seedFlag     = flag.Int64("seed", 42, "simulation seed")

		// rbuddy knobs
		sizesFlag = flag.Int("sizes", 5, "rbuddy: number of block sizes (2-5)")
		growFlag  = flag.Float64("grow", 1, "rbuddy: grow-policy multiplier (fractions allowed, e.g. 1.5)")
		clustFlag = flag.Bool("clustered", true, "rbuddy: use 32M bookkeeping regions")

		// extent knobs
		fitFlag    = flag.String("fit", "first", "extent: first | best")
		rangesFlag = flag.Int("ranges", 3, "extent: number of extent-size ranges (1-5)")

		// fixed knob
		blockFlag = flag.String("block", "4K", "fixed: block size (4K or 16K)")

		// custom workloads
		wlFileFlag = flag.String("workload-file", "", "JSON workload definition (overrides -workload)")
		dumpFlag   = flag.String("dump-workload", "", "print a built-in workload as JSON and exit (TS|TP|SC)")

		// disk knobs
		disksFlag  = flag.Int("disks", 0, "override number of drives")
		layoutFlag = flag.String("layout", "striped", "striped | mirrored | raid5 | parity")
		stripeFlag = flag.String("stripe", "", "override stripe unit, e.g. 24K")
		maxSimFlag = flag.Float64("max-sim", 0, "override simulated-time cap (ms)")
		traceFlag  = flag.String("trace", "", "write a tab-separated event trace to this file")

		// metrics bundle (see EXPERIMENTS.md "Metrics and spans")
		metricsFlag    = flag.String("metrics", "", "write the run's metrics bundle to this file (- for stdout)")
		metricsFmtFlag = flag.String("metrics-format", "json", "bundle encoding: json | csv | prom")
		metricsIntFlag = flag.Float64("metrics-interval", metrics.DefaultIntervalMS, "timeline sampling interval (simulated ms)")

		// Profiling: -trace is taken by the simulator's event trace; every
		// command spells the runtime execution trace -exectrace.
		cpuProfFlag  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfFlag  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		execTraceFlg = flag.String("exectrace", "", "write a runtime execution trace to this file")

		// fault-scenario knobs (see EXPERIMENTS.md "Fault injection")
		faultFlags = fault.AddFlags(flag.CommandLine)

		// cluster + open-loop knobs (see EXPERIMENTS.md "Cluster mode")
		clusterFlags = cluster.AddFlags(flag.CommandLine)
	)
	flag.Parse()

	stopProf, perr := prof.Start(prof.Flags{CPUProfile: *cpuProfFlag, MemProfile: *memProfFlag, Trace: *execTraceFlg})
	if perr != nil {
		fatal("%v", perr)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "rofsim: %v\n", err)
		}
	}()

	if *dumpFlag != "" {
		wl, err := workload.ByName(*dumpFlag)
		if err != nil {
			fatal("%v", err)
		}
		if err := workload.ToJSON(os.Stdout, wl); err != nil {
			fatal("%v", err)
		}
		return
	}

	sc := experiments.BenchScale()
	if *scaleFlag == "full" {
		sc = experiments.FullScale()
	}
	sc.Seed = *seedFlag
	if *maxSimFlag > 0 {
		sc.MaxSimMS = *maxSimFlag
	}
	if *disksFlag > 0 {
		sc.Disk.NDisks = *disksFlag
	}
	switch *layoutFlag {
	case "striped":
		sc.Disk.Layout = disk.Striped
	case "mirrored":
		sc.Disk.Layout = disk.Mirrored
	case "raid5":
		sc.Disk.Layout = disk.RAID5
	case "parity":
		sc.Disk.Layout = disk.ParityStriped
	default:
		fatal("unknown layout %q", *layoutFlag)
	}
	if *stripeFlag != "" {
		n, err := parseSize(*stripeFlag)
		if err != nil {
			fatal("bad stripe unit: %v", err)
		}
		sc.Disk.StripeUnitBytes = n
	}

	var wl workload.Workload
	var err error
	if *wlFileFlag != "" {
		f, ferr := os.Open(*wlFileFlag)
		if ferr != nil {
			fatal("%v", ferr)
		}
		wl, err = workload.FromJSON(f)
		f.Close()
	} else {
		wl, err = sc.Workload(*workloadFlag)
	}
	if err != nil {
		fatal("%v", err)
	}
	if a, aerr := clusterFlags.Arrivals(); aerr != nil {
		fatal("%v", aerr)
	} else if a != nil {
		wl.Arrivals = a
	}
	if cc := clusterFlags.Compaction(); cc != nil {
		wl.Compact = cc
	}
	cc := clusterFlags.Config()
	if err := cc.Validate(); err != nil {
		fatal("%v", err)
	}

	var spec core.PolicySpec
	switch *policyFlag {
	case "buddy":
		spec = core.Buddy()
	case "rbuddy":
		spec = core.RBuddy(*sizesFlag, *growFlag, *clustFlag)
	case "extent":
		fit := extent.FirstFit
		if strings.HasPrefix(*fitFlag, "b") {
			fit = extent.BestFit
		}
		ranges, err := sc.ExtentRanges(wl.Name, *rangesFlag)
		if err != nil {
			fatal("%v", err)
		}
		spec = core.Extent(fit, ranges)
	case "fixed":
		n, err := parseSize(*blockFlag)
		if err != nil {
			fatal("bad block size: %v", err)
		}
		spec = core.Fixed(n)
	default:
		fatal("unknown policy %q", *policyFlag)
	}

	cfg := sc.Config(spec, wl)
	cfg.Faults = faultFlags.Scenario()
	if err := cfg.Faults.Validate(); err != nil {
		fatal("%v", err)
	}
	if *traceFlag != "" {
		tf, err := os.Create(*traceFlag)
		if err != nil {
			fatal("%v", err)
		}
		defer tf.Close()
		cfg.TraceWriter = tf
	}

	metricsFmt, err := metrics.ParseFormat(*metricsFmtFlag)
	if err != nil {
		fatal("%v", err)
	}
	if *metricsFlag != "" {
		cfg.Metrics = metrics.New(*metricsIntFlag)
	}
	// With the bundle going to stdout, the human report moves to stderr so
	// the two streams stay separable.
	rpt := io.Writer(os.Stdout)
	if *metricsFlag == "-" {
		rpt = os.Stderr
	}
	fmt.Fprintf(rpt, "rofsim: policy=%s workload=%s test=%s scale=%s layout=%v seed=%d\n",
		spec.Name(), wl.Name, *testFlag, sc.Name, sc.Disk.Layout, sc.Seed)

	switch *testFlag {
	case "alloc":
		res, err := core.RunAllocation(cfg)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(rpt, "  disk filled:            %v (after %d operations)\n", res.Filled, res.Ops)
		fmt.Fprintf(rpt, "  internal fragmentation: %.2f%% of allocated space\n", res.InternalPct)
		fmt.Fprintf(rpt, "  external fragmentation: %.2f%% of total space\n", res.ExternalPct)
		if res.ExtentsPerFile > 0 {
			fmt.Fprintf(rpt, "  extents per file:       %.1f\n", res.ExtentsPerFile)
		}
	case "app", "seq":
		var res core.PerfResult
		switch {
		case cc.Enabled():
			if *testFlag != "app" {
				fatal("cluster mode requires -test app")
			}
			var out core.Outcome
			out, err = cluster.Run(cfg, cc, core.Application)
			res = out.Perf
		case *testFlag == "app":
			res, err = core.RunApplication(cfg)
		default:
			res, err = core.RunSequential(cfg)
		}
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(rpt, "  throughput:   %.1f%% of maximum (%s)\n", res.Percent, stability(res))
		fmt.Fprintf(rpt, "  simulated:    %.1f s, %d operations, %s moved\n",
			res.SimMS/1000, res.Ops, units.Format(res.Bytes))
		fmt.Fprintf(rpt, "  op latency:   %.1f ms mean, p95 <= %.0f ms\n",
			res.MeanLatencyMS, res.P95LatencyMS)
		if res.AllocFails > 0 {
			fmt.Fprintf(rpt, "  disk-full conditions logged: %d\n", res.AllocFails)
		}
		if fr := res.Faults; fr != nil {
			fmt.Fprintf(rpt, "  faults:       %d drive failure(s), %d transient error(s), %d retries, %d permanent\n",
				fr.DriveFailures, fr.TransientErrors, fr.Retries, fr.PermanentErrors)
			if fr.DegradedMS > 0 {
				fmt.Fprintf(rpt, "  degraded:     %.1f s of simulated time\n", fr.DegradedMS/1000)
			}
			switch {
			case fr.Rebuilds > 0:
				fmt.Fprintf(rpt, "  rebuild completed: %.1f s after failure (%s reconstructed)\n",
					fr.RebuildMS/1000, units.Format(fr.RebuildBytes))
			case fr.DegradedAtEnd:
				fmt.Fprintf(rpt, "  rebuild incomplete: still degraded at end of run\n")
			}
			if fr.RetriedOps > 0 {
				fmt.Fprintf(rpt, "  retry delay:  p50 <= %.0f ms, p95 <= %.0f ms over %d retried requests\n",
					fr.RetryP50MS, fr.RetryP95MS, fr.RetriedOps)
			}
		}
		if cr := res.Cluster; cr != nil {
			admit := cr.Admission
			if admit == "" {
				admit = "none"
			}
			fmt.Fprintf(rpt, "  cluster:      %d instances, routing=%s admission=%s\n",
				cr.Instances, cr.Routing, admit)
			if cr.Arrivals > 0 {
				fmt.Fprintf(rpt, "  admission:    %d arrivals, %d admitted, %d rejected (%.1f%%)\n",
					cr.Arrivals, cr.Admitted, cr.Rejected, cr.RejectPct)
			}
			fmt.Fprintf(rpt, "  balance:      utilization skew %.3f (1.0 = perfectly even)\n", cr.UtilSkew)
			for _, ip := range cr.PerInstance {
				faulted := ""
				if ip.Faulted {
					faulted = " [faulted]"
				}
				fmt.Fprintf(rpt, "    inst %d: %6d ops, %5.1f%% throughput, %.1f ms mean latency%s\n",
					ip.Index, ip.Ops, ip.Percent, ip.MeanLatencyMS, faulted)
			}
		}
		if co := res.Compaction; co != nil {
			fmt.Fprintf(rpt, "  compaction:   %s, %d segments flushed (%s), %d merges (%s read, %s written)\n",
				co.Policy, co.Segments, units.Format(co.FlushBytes), co.Merges,
				units.Format(co.MergeReadBytes), units.Format(co.MergeWriteBytes))
			fmt.Fprintf(rpt, "  write amp:    %.2fx, live segments per tier %v\n", co.WriteAmp, co.Live)
		}
	case "aging":
		res, err := core.RunAging(cfg)
		if err != nil {
			fatal("%v", err)
		}
		f := res.Final()
		fmt.Fprintf(rpt, "  churn:        %.1f h simulated, %d operations, %d disk-full conditions\n",
			res.SimMS/3.6e6, res.Ops, res.AllocFails)
		fmt.Fprintf(rpt, "  free space:   %d fragments, largest %d units\n",
			f.FreeFragments, f.LargestFreeUnits)
		fmt.Fprintf(rpt, "  fragmentation: %.2f%% internal, %.2f%% external at %.1f%% utilization\n",
			f.InternalPct, f.ExternalPct, f.Utilization*100)
		fmt.Fprintf(rpt, "  objects:      %d files, %s mean size\n", f.Files, units.Format(int64(f.MeanFileBytes)))
	default:
		fatal("unknown test %q", *testFlag)
	}

	if *metricsFlag != "" {
		if err := cfg.Metrics.WriteFile(*metricsFlag, metricsFmt); err != nil {
			fatal("%v", err)
		}
		if *metricsFlag != "-" {
			fmt.Fprintf(os.Stderr, "rofsim: wrote metrics bundle to %s\n", *metricsFlag)
		}
	}
}

func stability(res core.PerfResult) string {
	if res.Stable {
		return fmt.Sprintf("stabilized after %d windows", res.Windows)
	}
	return "time-capped; overall average"
}

func parseSize(s string) (int64, error) {
	s = strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = units.KB, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = units.MB, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = units.GB, strings.TrimSuffix(s, "G")
	}
	var n int64
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		return 0, fmt.Errorf("cannot parse size %q", s)
	}
	return n * mult, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rofsim: "+format+"\n", args...)
	os.Exit(1)
}
