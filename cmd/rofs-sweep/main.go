// Command rofs-sweep runs a one-dimensional parameter sweep and emits CSV
// — the tool behind sensitivity studies and the seed-variance numbers in
// EXPERIMENTS.md.
//
// Sweepable parameters:
//
//	seed           re-run the same configuration under different seeds
//	users          scale every file type's user count
//	stripe         stripe-unit size (bytes, powers of the base value)
//	disks          number of drives
//	grow           restricted buddy grow factor (fractional values allowed)
//	sizes          restricted buddy block-size count (2-5)
//	rebuild-pause  fault: rebuild throttle pause between chunks (ms)
//	instances      cluster: fleet size (app test only)
//	routing        cluster: routing policy by name (rr, least, affinity)
//	admission      cluster: admission policy by name (none, token, queue)
//	rate           open-loop Poisson arrival rate (ops/s, app test only)
//
// The fault-scenario flags (-fail-at, -mttf, -transient, -rebuild, ...)
// apply to every sweep point, so a degraded-mode sweep is any ordinary
// sweep with a scenario attached. The cluster flags (-instances, -routing,
// -admission, -rate, ...) likewise fix the fleet shape across the sweep;
// the cluster sweep parameters vary one of those axes per point. -compact
// arms the compaction overlay on every point. Each point is a
// service.RunRequest built by the same parser as rofsim and rofs-server,
// so a point the server would reject fails here with the same message.
//
// Examples:
//
//	rofs-sweep -param seed -values 1,2,3,4,5 -workload TP -test app
//	rofs-sweep -param stripe -values 8192,24576,98304 -workload SC -test seq
//	rofs-sweep -param grow -values 1,1.5,2 -workload TS -test alloc
//	rofs-sweep -param users -values 8,16,32,64 -workload TP -test app -scale full -jobs 4
//	rofs-sweep -param rebuild-pause -values 0,5,20,100 -workload TS -test app \
//	  -layout raid5 -disks 4 -fail-at 20000 -rebuild
//	rofs-sweep -param instances -values 1,2,4,8 -workload TP -test app -rate 400
//	rofs-sweep -param routing -values rr,least,affinity -workload TP -test app \
//	  -instances 4 -rate 400 -snapshot-ms 250
//	rofs-sweep -param rate -values 100,200,400,800 -workload TP -test app \
//	  -instances 4 -admission queue -queue-cap 64
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/metrics"
	"rofs/internal/prof"
	"rofs/internal/report"
	"rofs/internal/runner"
	"rofs/internal/service"
	"rofs/internal/stats"
	"rofs/internal/workload"
)

func main() {
	var (
		paramFlag    = flag.String("param", "seed", "seed | users | stripe | disks | grow | sizes | rebuild-pause | instances | routing | admission | rate")
		valuesFlag   = flag.String("values", "1,2,3", "comma-separated values to sweep")
		workloadFlag = flag.String("workload", "TP", "TS | TP | SC")
		testFlag     = flag.String("test", "app", "alloc | app | seq")
		scaleFlag    = flag.String("scale", "bench", "full | bench")
		layoutFlag   = flag.String("layout", "striped", "striped | mirrored | raid5 | parity")
		disksFlag    = flag.Int("disks", 0, "override number of drives (fixed across the sweep)")
		csvFlag      = flag.Bool("csv", true, "emit CSV (false: aligned table)")
		summaryFlag  = flag.Bool("summary", false, "append mean ± 95% CI rows per metric (useful with -param seed)")
		jobsFlag     = flag.Int("jobs", runtime.GOMAXPROCS(0), "maximum simulations running at once")
		timeoutFlag  = flag.Duration("timeout", 0, "overall deadline (e.g. 10m; 0 means none)")

		metricsFlag    = flag.String("metrics", "", "write one metrics bundle per sweep point into this directory")
		metricsFmtFlag = flag.String("metrics-format", "json", "bundle encoding: json | csv | prom")
		metricsIntFlag = flag.Float64("metrics-interval", metrics.DefaultIntervalMS, "timeline sampling interval (simulated ms)")

		cpuProfFlag  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfFlag  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		execTraceFlg = flag.String("exectrace", "", "write a runtime execution trace to this file")

		// Fault, cluster, open-loop and compaction knobs, applied to every
		// sweep point unless the swept parameter varies one of them.
		scenarioFlags = service.AddScenarioFlags(flag.CommandLine)
	)
	flag.Parse()

	stopProf, err := prof.Start(prof.Flags{CPUProfile: *cpuProfFlag, MemProfile: *memProfFlag, Trace: *execTraceFlg})
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "rofs-sweep: %v\n", err)
		}
	}()

	values, err := parseValues(*valuesFlag)
	if err != nil {
		fatal("%v", err)
	}

	// Every point is this base request with the swept field changed; the
	// fixed policy is restricted buddy at its defaults (5 sizes, grow 1,
	// clustered).
	base := service.RunRequest{
		Policy: "rbuddy", Workload: *workloadFlag, Test: *testFlag, Scale: *scaleFlag,
		Layout: *layoutFlag, Disks: *disksFlag,
	}
	if err := scenarioFlags.Apply(&base); err != nil {
		fatal("%v", err)
	}
	specs, err := buildSpecs(base, *paramFlag, values)
	if err != nil {
		fatal("%v", err)
	}

	// Ctrl-C / SIGTERM cancel the context: in-flight simulations stop at
	// their next operation, completed rows still render, and the process
	// exits nonzero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeoutFlag > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeoutFlag)
		defer cancel()
	}
	metricsFmt, err := metrics.ParseFormat(*metricsFmtFlag)
	if err != nil {
		fatal("%v", err)
	}
	pool := runner.New(*jobsFlag)
	if *metricsFlag != "" {
		pool.MetricsIntervalMS = *metricsIntFlag
	}
	pool.OnResult = func(_ int, r runner.Result) {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "  run %-42s FAILED: %v\n", r.Spec.Label(), r.Err)
			return
		}
		st := r.Outcome.Stats
		note := ""
		if r.Cached {
			note = "  (cached)"
		}
		fmt.Fprintf(os.Stderr, "  run %-42s %6.2fs wall  %12.0f ms simulated  %9d events  %8.0f events/sec%s\n",
			r.Spec.Label(), r.Wall.Seconds(), st.SimMS, st.Events,
			float64(st.Events)/r.Wall.Seconds(), note)
	}
	outs, runErr := pool.Run(ctx, specs)
	interrupted := ctx.Err() != nil
	if runErr != nil && !interrupted {
		fatal("%v", runErr)
	}
	if *metricsFlag != "" {
		for _, r := range outs {
			if r.Err != nil {
				continue
			}
			if _, err := runner.SaveMetrics(*metricsFlag, metricsFmt, r.Spec.Label(), r.Outcome.Metrics); err != nil {
				fatal("%v", err)
			}
		}
		fmt.Fprintf(os.Stderr, "rofs-sweep: wrote per-point metrics bundles to %s/\n", *metricsFlag)
	}

	// Rows come back in submission order, so the CSV is ordered by value
	// regardless of which simulation finished first.
	t := report.NewTable("",
		*paramFlag, "policy", "workload", "test", "metric1", "metric2", "metric3", "metric4")
	var m1, m2, m3, m4 stats.Welford
	completed := 0
	for i, r := range outs {
		if r.Err != nil {
			continue
		}
		completed++
		v := values[i]
		sp := r.Spec
		switch sp.Kind {
		case core.Allocation:
			res := r.Outcome.Frag
			t.AddRow(v, sp.Policy.Name(), sp.Workload.Name, "alloc",
				f(res.InternalPct), f(res.ExternalPct), fmt.Sprint(res.Ops), "")
			m1.Add(res.InternalPct)
			m2.Add(res.ExternalPct)
			m3.Add(float64(res.Ops))
		default:
			res := r.Outcome.Perf
			// metric4 is the admission reject rate — meaningful only for
			// fleet rows; plain rows leave it blank.
			rej := ""
			if res.Cluster != nil {
				rej = f(res.Cluster.RejectPct)
				m4.Add(res.Cluster.RejectPct)
			}
			t.AddRow(v, sp.Policy.Name(), sp.Workload.Name, *testFlag,
				f(res.Percent), f(res.MeanLatencyMS), f(res.P95LatencyMS), rej)
			m1.Add(res.Percent)
			m2.Add(res.MeanLatencyMS)
			m3.Add(res.P95LatencyMS)
		}
	}
	if *summaryFlag {
		ci := func(w *stats.Welford) string {
			if w.N() == 0 {
				return ""
			}
			return fmt.Sprintf("%.2f±%.2f", w.Mean(), w.CI95())
		}
		t.AddRow("mean±CI95", "", "", "", ci(&m1), ci(&m2), ci(&m3), ci(&m4))
	}
	if *csvFlag {
		if err := t.RenderCSV(os.Stdout); err != nil {
			fatal("%v", err)
		}
	} else {
		t.Render(os.Stdout)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "rofs-sweep: interrupted (%v); rendered %d of %d completed points\n",
			ctx.Err(), completed, len(specs))
		os.Exit(1)
	}
}

// parseValues splits a comma-separated list into tokens. Values stay
// strings so name-valued parameters (routing, admission) sweep like
// numeric ones; numeric parameters convert and validate per parameter in
// buildSpecs.
func parseValues(list string) ([]string, error) {
	var values []string
	for _, tok := range strings.Split(list, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			values = append(values, tok)
		}
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("no values to sweep")
	}
	return values, nil
}

// asFloat converts a numeric sweep token.
func asFloat(param, tok string) (float64, error) {
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q needs numeric values, got %q", param, tok)
	}
	return v, nil
}

// asInt converts an integer-valued parameter, rejecting fractions.
func asInt(param, tok string) (int64, error) {
	v, err := asFloat(param, tok)
	if err != nil {
		return 0, err
	}
	if v != math.Trunc(v) {
		return 0, fmt.Errorf("parameter %q needs integer values, got %g", param, v)
	}
	return int64(v), nil
}

// buildSpecs declares one Spec per sweep value: each point copies base,
// sets the one field the parameter names, and builds through
// RunRequest.Spec. users is not a request field, so that sweep edits the
// built Spec's workload instead.
func buildSpecs(base service.RunRequest, param string, values []string) ([]runner.Spec, error) {
	specs := make([]runner.Spec, 0, len(values))
	for _, tok := range values {
		req := base
		// Each point owns its cluster block, so editing it leaves base
		// intact.
		var cc cluster.Config
		if base.Cluster != nil {
			cc = *base.Cluster
		}
		var (
			n   int64
			err error
		)
		switch param {
		case "seed":
			n, err = asInt(param, tok)
			req.SetSeed(n)
		case "users":
			n, err = asInt(param, tok)
		case "stripe":
			req.StripeBytes, err = asInt(param, tok)
		case "disks":
			n, err = asInt(param, tok)
			req.Disks = int(n)
		case "grow":
			req.Grow, err = asFloat(param, tok)
		case "sizes":
			n, err = asInt(param, tok)
			req.Sizes = int(n)
		case "rebuild-pause":
			if base.Faults == nil || !base.Faults.Enabled() || !base.Faults.Rebuild {
				return nil, fmt.Errorf("parameter %q needs a rebuild scenario (-fail-at or -mttf, plus -rebuild)", param)
			}
			fl := *base.Faults
			fl.RebuildPauseMS, err = asFloat(param, tok)
			req.Faults = &fl
		case "instances":
			n, err = asInt(param, tok)
			cc.Instances = int(n)
			req.Cluster = &cc
		case "routing", "admission":
			if cc.Instances == 0 {
				return nil, fmt.Errorf("parameter %q needs a fleet (-instances N)", param)
			}
			switch {
			case param == "routing":
				cc.Routing = tok
			case tok == "none":
				cc.Admission = ""
			default:
				cc.Admission = tok
			}
			req.Cluster = &cc
		case "rate":
			var a workload.Arrivals
			if base.Arrivals != nil {
				a.Clients = base.Arrivals.Clients
			}
			a.RatePerSec, err = asFloat(param, tok)
			req.Arrivals = &a
		default:
			return nil, fmt.Errorf("unknown parameter %q", param)
		}
		if err != nil {
			return nil, err
		}
		sp, err := req.Spec()
		if err == nil && param == "users" {
			for i := range sp.Workload.Types {
				sp.Workload.Types[i].Users = int(n)
			}
			err = sp.Workload.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("%s=%s: %w", param, tok, err)
		}
		if sp.Kind == core.Aging {
			return nil, fmt.Errorf("the aging test has no sweep columns; run it with rofsim or rofs-tables -exp aging")
		}
		sp.Name = fmt.Sprintf("%s=%s %s/%s/%s", param, tok, sp.Policy.Name(), sp.Workload.Name, sp.Kind)
		specs = append(specs, sp)
	}
	return specs, nil
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rofs-sweep: "+format+"\n", args...)
	os.Exit(1)
}
