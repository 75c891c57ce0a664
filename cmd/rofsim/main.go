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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/experiments"
	"rofs/internal/metrics"
	"rofs/internal/prof"
	"rofs/internal/runner"
	"rofs/internal/service"
	"rofs/internal/units"
	"rofs/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli holds rofsim's flags: the shared run description, plus the
// workload-file, output and profiling flags, which stay CLI-only because
// the server never reads or writes client paths.
type cli struct {
	run                 *service.RunFlags
	wlFile, dump, trace string
	metrics, metricsFmt string
	metricsInt          float64
	prof                prof.Flags
}

// run is rofsim with its arguments, output streams and exit status made
// explicit: 0 on success, 1 when the run fails, 2 on a flag syntax error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rofsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The run description: the same flags, defaults and parser
	// (service.RunRequest.Spec) as rofs-client and POST /v1/runs.
	c := cli{run: service.AddRunFlags(fs, service.DefaultRequest())}

	fs.StringVar(&c.wlFile, "workload-file", "", "JSON workload definition (overrides -workload)")
	fs.StringVar(&c.dump, "dump-workload", "", "print a built-in workload as JSON and exit (TS|TP|SC)")
	fs.StringVar(&c.trace, "trace", "", "write a tab-separated event trace to this file")

	// metrics bundle (see EXPERIMENTS.md "Metrics and spans")
	fs.StringVar(&c.metrics, "metrics", "", "write the run's metrics bundle to this file (- for stdout)")
	fs.StringVar(&c.metricsFmt, "metrics-format", "json", "bundle encoding: json | csv | prom")
	fs.Float64Var(&c.metricsInt, "metrics-interval", metrics.DefaultIntervalMS, "timeline sampling interval (simulated ms)")

	// Profiling: -trace is taken by the simulator's event trace; every
	// command spells the runtime execution trace -exectrace.
	fs.StringVar(&c.prof.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.prof.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&c.prof.Trace, "exectrace", "", "write a runtime execution trace to this file")

	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stopProf, err := prof.Start(c.prof)
	if err == nil {
		defer func() {
			if err := stopProf(); err != nil {
				fmt.Fprintf(stderr, "rofsim: %v\n", err)
			}
		}()
		err = c.simulate(stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "rofsim: %v\n", err)
		return 1
	}
	return 0
}

// simulate builds the run the flags describe through RunRequest.Spec,
// runs it the way runner.Pool does (cluster.Run dispatches on the test
// kind and hands plain runs to core.Run), and prints the report.
func (c *cli) simulate(stdout, stderr io.Writer) error {
	if c.dump != "" {
		wl, err := workload.ByName(c.dump)
		if err != nil {
			return err
		}
		return workload.ToJSON(stdout, wl)
	}
	req, err := c.run.Request()
	if err != nil {
		return err
	}
	sp, err := c.spec(&req)
	if err != nil {
		return err
	}
	sc, err := experiments.ScaleByName(req.Scale)
	if err != nil {
		return err
	}
	metricsFmt, err := metrics.ParseFormat(c.metricsFmt)
	if err != nil {
		return err
	}

	cfg := sp.Config()
	var tf *os.File
	if c.trace != "" {
		if tf, err = os.Create(c.trace); err != nil {
			return err
		}
		defer tf.Close() // for the error paths; success closes it below
		cfg.TraceWriter = tf
	}
	if c.metrics != "" {
		cfg.Metrics = metrics.New(c.metricsInt)
	}
	// With the bundle going to stdout, the human report moves to stderr so
	// the two streams stay separable.
	rpt := stdout
	if c.metrics == "-" {
		rpt = stderr
	}
	fmt.Fprintf(rpt, "rofsim: policy=%s workload=%s test=%s scale=%s layout=%v seed=%d\n",
		sp.Policy.Name(), sp.Workload.Name, req.Test, sc.Name, sp.Disk.Layout, sp.Seed)

	out, err := cluster.Run(cfg, sp.Cluster, sp.Kind)
	if err != nil {
		return err
	}
	if tf != nil {
		if err := tf.Close(); err != nil {
			return err
		}
	}
	report(rpt, out)

	switch c.metrics {
	case "":
	case "-":
		return cfg.Metrics.Write(stdout, metricsFmt)
	default:
		if err := cfg.Metrics.WriteFile(c.metrics, metricsFmt); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "rofsim: wrote metrics bundle to %s\n", c.metrics)
	}
	return nil
}

// spec builds req's Spec, over the -workload-file workload when one is
// given.
func (c *cli) spec(req *service.RunRequest) (runner.Spec, error) {
	if c.wlFile == "" {
		return req.Spec()
	}
	f, err := os.Open(c.wlFile)
	if err != nil {
		return runner.Spec{}, err
	}
	defer f.Close()
	wl, err := workload.FromJSON(f)
	if err != nil {
		return runner.Spec{}, err
	}
	return req.SpecWith(wl)
}

// report prints the human-readable result block for the outcome's test.
func report(rpt io.Writer, out core.Outcome) {
	switch out.Kind {
	case core.Allocation:
		res := out.Frag
		fmt.Fprintf(rpt, "  disk filled:            %v (after %d operations)\n", res.Filled, res.Ops)
		fmt.Fprintf(rpt, "  internal fragmentation: %.2f%% of allocated space\n", res.InternalPct)
		fmt.Fprintf(rpt, "  external fragmentation: %.2f%% of total space\n", res.ExternalPct)
		if res.ExtentsPerFile > 0 {
			fmt.Fprintf(rpt, "  extents per file:       %.1f\n", res.ExtentsPerFile)
		}
	case core.Application, core.Sequential:
		res := out.Perf
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
	case core.Aging:
		res := out.Aging
		f := res.Final()
		fmt.Fprintf(rpt, "  churn:        %.1f h simulated, %d operations, %d disk-full conditions\n",
			res.SimMS/3.6e6, res.Ops, res.AllocFails)
		fmt.Fprintf(rpt, "  free space:   %d fragments, largest %d units\n",
			f.FreeFragments, f.LargestFreeUnits)
		fmt.Fprintf(rpt, "  fragmentation: %.2f%% internal, %.2f%% external at %.1f%% utilization\n",
			f.InternalPct, f.ExternalPct, f.Utilization*100)
		fmt.Fprintf(rpt, "  objects:      %d files, %s mean size\n", f.Files, units.Format(int64(f.MeanFileBytes)))
	}
}

func stability(res core.PerfResult) string {
	if res.Stable {
		return fmt.Sprintf("stabilized after %d windows", res.Windows)
	}
	return "time-capped; overall average"
}
