// Command rofs-tables regenerates every table and figure of the paper's
// evaluation (and the §6 ablations), printing text tables and ASCII bar
// charts. See EXPERIMENTS.md for paper-vs-measured numbers.
//
// Usage:
//
//	rofs-tables -exp all -scale full          # the paper's configuration
//	rofs-tables -exp table3,fig6 -scale bench # quick reduced-scale runs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rofs/internal/disk"
	"rofs/internal/experiments"
	"rofs/internal/fault"
	"rofs/internal/metrics"
	"rofs/internal/prof"
	"rofs/internal/report"
	"rofs/internal/runner"
	"rofs/internal/sim"
	"rofs/internal/units"
	"rofs/internal/workload"
)

// expFunc renders one experiment; the pool bounds its parallelism and
// caches results across experiments in the same invocation.
type expFunc func(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error

// experimentRegistry is the full table of renderable artifacts, in the
// paper's order.
func experimentRegistry() (map[string]expFunc, []string) {
	all := map[string]expFunc{
		"table1":   table1,
		"table2":   table2,
		"table3":   table3,
		"fig1":     fig1,
		"fig2":     fig2,
		"fig3":     fig3,
		"fig4":     fig4,
		"fig5":     fig5,
		"table4":   table4,
		"fig6":     fig6,
		"raid":     ablationRAID,
		"stripe":   ablationStripe,
		"mix":      ablationMix,
		"cluster":  ablationCluster,
		"sched":    ablationScheduler,
		"realloc":  ablationRealloc,
		"meta":     metadataTable,
		"skew":     ablationSkew,
		"freelist": ablationFreeList,
		"faults":   faultTable,
		"fleet":    fleetTable,
		"trace":    traceReplay,
		"aging":    agingTable,
		"compact":  compactionTable,
	}
	order := []string{"table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5",
		"table4", "fig6", "raid", "stripe", "mix", "cluster", "sched", "realloc", "meta",
		"skew", "freelist", "faults", "fleet", "trace", "aging", "compact"}
	return all, order
}

// tableFaults is the scenario the `faults` experiment runs, set from the
// fault flags in main (zero: experiments.DefaultFaultScenario).
var tableFaults fault.Scenario

// tableArrivals is the trace the `trace` experiment replays, loaded from
// -arrival-trace in main (nil: the built-in demo trace).
var tableArrivals *workload.Arrivals

// progress prints one per-run line to stderr as results land.
func progress(_ int, r runner.Result) {
	label := r.Spec.Label()
	switch {
	case r.Err != nil:
		fmt.Fprintf(os.Stderr, "  run %-42s FAILED: %v\n", label, r.Err)
	case r.Cached:
		fmt.Fprintf(os.Stderr, "  run %-42s cached (first run took %.2fs)\n", label, r.Wall.Seconds())
	default:
		st := r.Outcome.Stats
		evps := float64(st.Events) / r.Wall.Seconds()
		fmt.Fprintf(os.Stderr, "  run %-42s %6.2fs wall  %12.0f ms simulated  %9d events  %8.0f events/sec\n",
			label, r.Wall.Seconds(), st.SimMS, st.Events, evps)
	}
}

func main() {
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiments: table1,table2,table3,fig1,fig2,fig3,fig4,fig5,table4,fig6,raid,stripe,mix,cluster,sched,realloc,meta,skew,freelist,faults,fleet,trace,aging,compact, or all")
		scaleFlag   = flag.String("scale", "bench", "full (the paper's 8-drive array, 2.8 G decimal) or bench (reduced)")
		seedFlag    = flag.Int64("seed", 42, "simulation seed")
		jobsFlag    = flag.Int("jobs", runtime.GOMAXPROCS(0), "maximum simulations running at once")
		timeoutFlag = flag.Duration("timeout", 0, "overall deadline (e.g. 10m; 0 means none)")

		metricsFlag    = flag.String("metrics", "", "write one metrics bundle per grid cell into this directory")
		metricsFmtFlag = flag.String("metrics-format", "json", "bundle encoding: json | csv | prom")
		metricsIntFlag = flag.Float64("metrics-interval", metrics.DefaultIntervalMS, "timeline sampling interval (simulated ms)")

		cpuProfFlag  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfFlag  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		execTraceFlg = flag.String("exectrace", "", "write a runtime execution trace to this file")

		// Scenario knobs for the `faults` experiment (all other experiments
		// run fault-free; zero flags select the default scenario).
		faultFlags = fault.AddFlags(flag.CommandLine)

		// Trace file for the `trace` experiment (empty: a built-in demo
		// trace; see EXPERIMENTS.md for the file grammar).
		traceFlag = flag.String("arrival-trace", "", "open-loop trace file the `trace` experiment replays")
	)
	flag.Parse()
	if *traceFlag != "" {
		a, err := workload.LoadTraceFile(*traceFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rofs-tables: %v\n", err)
			os.Exit(2)
		}
		tableArrivals = a
	}
	tableFaults = faultFlags.Scenario()
	if err := tableFaults.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rofs-tables: %v\n", err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(prof.Flags{CPUProfile: *cpuProfFlag, MemProfile: *memProfFlag, Trace: *execTraceFlg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rofs-tables: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "rofs-tables: %v\n", err)
		}
	}()

	sc, err := experiments.ScaleByName(*scaleFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rofs-tables: %v\n", err)
		os.Exit(2)
	}
	sc.Seed = *seedFlag

	// Ctrl-C / SIGTERM cancel the context: in-flight simulations stop at
	// their next operation, already-rendered tables stay on stdout, and
	// the process exits nonzero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeoutFlag > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeoutFlag)
		defer cancel()
	}
	// One pool for the whole invocation: configurations shared between
	// tables (e.g. the Table 4 / Figure 4 first-fit runs) simulate once.
	pool := runner.New(*jobsFlag)
	pool.OnResult = progress
	if *metricsFlag != "" {
		metricsFmt, err := metrics.ParseFormat(*metricsFmtFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rofs-tables: %v\n", err)
			os.Exit(2)
		}
		pool.MetricsIntervalMS = *metricsIntFlag
		// Bundles land as results do; cached repeats just rewrite the same
		// file with the same content.
		pool.OnResult = func(i int, r runner.Result) {
			progress(i, r)
			if r.Err != nil {
				return
			}
			if _, err := runner.SaveMetrics(*metricsFlag, metricsFmt, r.Spec.Label(), r.Outcome.Metrics); err != nil {
				fmt.Fprintf(os.Stderr, "rofs-tables: metrics: %v\n", err)
				os.Exit(1)
			}
		}
	}

	all, order := experimentRegistry()

	want := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		want = order
	}
	for _, name := range want {
		name = strings.TrimSpace(name)
		fn, ok := all[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "rofs-tables: unknown experiment %q\n", name)
			os.Exit(2)
		}
		start := time.Now()
		fmt.Printf("=== %s (scale=%s, seed=%d) ===\n", name, sc.Name, sc.Seed)
		if err := fn(ctx, pool, sc); err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "rofs-tables: interrupted during %s (%v); earlier experiments rendered\n",
					name, ctx.Err())
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "rofs-tables: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("    [%s in %.1fs]\n\n", name, time.Since(start).Seconds())
	}
}

func table1(_ context.Context, _ *runner.Pool, sc experiments.Scale) error {
	g := sc.Disk.Geometry
	t := report.NewTable("Table 1: Disk Drive Parameters and Simulator Values", "Parameter", "Value")
	t.AddRow("Number of disks", sc.Disk.NDisks)
	t.AddRow("Total capacity", units.Format(g.Capacity()*int64(sc.Disk.NDisks)))
	sys, err := disk.New(sc.Disk, &sim.Engine{})
	if err != nil {
		return err
	}
	t.AddRow("Maximum sustained throughput", fmt.Sprintf("%.1f M/sec", sys.MaxBandwidth()*1000/1e6))
	t.AddRow("Number of platters", g.TracksPerCylinder)
	t.AddRow("Number of cylinders", g.Cylinders)
	t.AddRow("Bytes per track", units.Format(g.BytesPerTrack))
	t.AddRow("Single track seek time", fmt.Sprintf("%.1f ms", g.SingleTrackSeekMS))
	t.AddRow("Seek incremental time", fmt.Sprintf("%.4f ms", g.SeekIncrementMS))
	t.AddRow("Single rotation time", fmt.Sprintf("%.2f ms", g.RotationMS))
	t.AddRow("Stripe unit", units.Format(sc.Disk.StripeUnitBytes))
	t.AddRow("Disk unit", units.Format(sc.Disk.UnitBytes))
	t.Render(os.Stdout)
	return nil
}

func table2(_ context.Context, _ *runner.Pool, sc experiments.Scale) error {
	for _, name := range []string{"TS", "TP", "SC"} {
		wl, err := sc.Workload(name)
		if err != nil {
			return err
		}
		t := report.NewTable(fmt.Sprintf("Table 2 (%s workload): file type parameters", wl.Name),
			"Type", "Files", "Users", "Init", "RW", "Extend", "Trunc", "Alloc", "R%", "W%", "E%", "Del%")
		for _, ft := range wl.Types {
			t.AddRow(ft.Name, ft.Files, ft.Users, units.Format(ft.InitialBytes),
				units.Format(ft.RWSizeBytes), units.Format(ft.ExtendSize()),
				units.Format(ft.TruncateBytes), units.Format(ft.AllocSizeBytes),
				ft.ReadPct, ft.WritePct, ft.ExtendPct, ft.DeletePct)
		}
		t.Render(os.Stdout)
	}
	return nil
}

func table3(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	rows, err := experiments.Table3(ctx, pool, sc)
	if err != nil {
		return err
	}
	t := report.NewTable("Table 3: Results for Buddy Allocation",
		"Workload", "Internal%", "External%", "Application%", "Sequential%")
	for _, r := range rows {
		t.AddRow(r.Workload, r.InternalPct, r.ExternalPct, r.AppPct, r.SeqPct)
	}
	t.Render(os.Stdout)
	return nil
}

func fig1(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.Figure1(ctx, pool, sc)
	if err != nil {
		return err
	}
	// The paper's panels: (a,c,e) internal and (b,d,f) external
	// fragmentation for SC, TP, TS.
	panels := []struct {
		letter, wl, what string
		pick             func(experiments.FragCell) float64
	}{
		{"1a", "SC", "internal", func(c experiments.FragCell) float64 { return c.InternalPct }},
		{"1b", "SC", "external", func(c experiments.FragCell) float64 { return c.ExternalPct }},
		{"1c", "TP", "internal", func(c experiments.FragCell) float64 { return c.InternalPct }},
		{"1d", "TP", "external", func(c experiments.FragCell) float64 { return c.ExternalPct }},
		{"1e", "TS", "internal", func(c experiments.FragCell) float64 { return c.InternalPct }},
		{"1f", "TS", "external", func(c experiments.FragCell) float64 { return c.ExternalPct }},
	}
	for _, p := range panels {
		chart := report.NewBarChart(
			fmt.Sprintf("Figure %s: %s %s fragmentation (%% of space)", p.letter, p.wl, p.what), 25, 50)
		group := ""
		for _, c := range cells {
			if c.Workload != p.wl {
				continue
			}
			// Group bars by block-size count, as the paper does.
			g := c.Policy[:8] // "rbuddy-N"
			if group != "" && g != group {
				chart.Gap()
			}
			group = g
			chart.Add(c.Policy, p.pick(c))
		}
		chart.Render(os.Stdout)
		fmt.Println()
	}
	return nil
}

func fig2(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.Figure2(ctx, pool, sc)
	if err != nil {
		return err
	}
	panels := []struct {
		letter, wl, what string
		pick             func(experiments.PerfCell) float64
	}{
		{"2a", "SC", "application", func(c experiments.PerfCell) float64 { return c.AppPct }},
		{"2b", "SC", "sequential", func(c experiments.PerfCell) float64 { return c.SeqPct }},
		{"2c", "TP", "application", func(c experiments.PerfCell) float64 { return c.AppPct }},
		{"2d", "TP", "sequential", func(c experiments.PerfCell) float64 { return c.SeqPct }},
		{"2e", "TS", "application", func(c experiments.PerfCell) float64 { return c.AppPct }},
		{"2f", "TS", "sequential", func(c experiments.PerfCell) float64 { return c.SeqPct }},
	}
	for _, p := range panels {
		chart := report.NewBarChart(
			fmt.Sprintf("Figure %s: %s %s performance (%% of max throughput)", p.letter, p.wl, p.what), 100, 50)
		group := ""
		for _, c := range cells {
			if c.Workload != p.wl {
				continue
			}
			g := c.Policy[:8]
			if group != "" && g != group {
				chart.Gap()
			}
			group = g
			chart.Add(c.Policy, p.pick(c))
		}
		chart.Render(os.Stdout)
		fmt.Println()
	}
	return nil
}

func fig3(ctx context.Context, pool *runner.Pool, _ experiments.Scale) error {
	res, err := experiments.Figure3(ctx, pool)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3: contiguous allocation vs the grow factor (sizes 1K/8K/64K)")
	for _, r := range res {
		fmt.Printf("  grow factor %g: first 64K block at %dK allocated; layout %v",
			r.GrowFactor, r.FileKB, r.Extents)
		if r.Discontiguous {
			fmt.Printf("  -> discontiguous, %dK hole skipped (the Figure 3 seek)", r.GapKB)
		}
		fmt.Println()
	}
	return nil
}

func fig4(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.Figure4(ctx, pool, sc)
	if err != nil {
		return err
	}
	renderFrag("Figure 4: Extent-based fragmentation", cells)
	return nil
}

func fig5(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.Figure5(ctx, pool, sc)
	if err != nil {
		return err
	}
	renderPerf("Figure 5: Extent-based performance", cells)
	return nil
}

func table4(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	rows, err := experiments.Table4(ctx, pool, sc)
	if err != nil {
		return err
	}
	t := report.NewTable("Table 4: Average number of extents per file (first fit)",
		"Ranges", "SC", "TP", "TS")
	byRange := map[int]map[string]float64{}
	for _, r := range rows {
		if byRange[r.Ranges] == nil {
			byRange[r.Ranges] = map[string]float64{}
		}
		byRange[r.Ranges][r.Workload] = r.ExtentsPerFile
	}
	for n := 1; n <= 5; n++ {
		t.AddRow(n, byRange[n]["SC"], byRange[n]["TP"], byRange[n]["TS"])
	}
	t.Render(os.Stdout)
	return nil
}

func fig6(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.Figure6(ctx, pool, sc)
	if err != nil {
		return err
	}
	for _, panel := range []struct {
		title string
		pick  func(experiments.PerfCell) float64
	}{
		{"Figure 6a: Sequential performance (% of max throughput)", func(c experiments.PerfCell) float64 { return c.SeqPct }},
		{"Figure 6b: Application performance (% of max throughput)", func(c experiments.PerfCell) float64 { return c.AppPct }},
	} {
		chart := report.NewBarChart(panel.title, 100, 50)
		last := ""
		for _, c := range cells {
			if c.Workload != last && last != "" {
				chart.Gap()
			}
			last = c.Workload
			chart.Add(fmt.Sprintf("%s %s", c.Workload, c.Policy), panel.pick(c))
		}
		chart.Render(os.Stdout)
		fmt.Println()
	}
	return nil
}

func ablationRAID(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	for _, wl := range []string{"TP", "SC"} {
		cells, err := experiments.AblationRAID(ctx, pool, sc, wl)
		if err != nil {
			return err
		}
		t := report.NewTable(fmt.Sprintf("Ablation A1 (%s): disk-system layouts under rbuddy-5-g1-clus", wl),
			"Layout", "Application%", "Sequential%")
		for _, c := range cells {
			t.AddRow(c.Name(), c.AppPct, c.SeqPct)
		}
		t.Render(os.Stdout)
	}
	return nil
}

func ablationStripe(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	for _, wl := range []string{"SC", "TS"} {
		cells, err := experiments.AblationStripeUnit(ctx, pool, sc, wl)
		if err != nil {
			return err
		}
		t := report.NewTable(fmt.Sprintf("Ablation A2 (%s): stripe-unit sensitivity", wl),
			"Stripe unit", "Application%", "Sequential%")
		for _, c := range cells {
			t.AddRow(units.Format(c.StripeBytes), c.AppPct, c.SeqPct)
		}
		t.Render(os.Stdout)
	}
	return nil
}

func ablationMix(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.AblationFileMix(ctx, pool, sc)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A3: fragmentation vs large-file space share (TS variant)",
		"Large share", "Policy", "Internal%", "External%")
	for _, c := range cells {
		t.AddRow(fmt.Sprintf("%.0f%%", c.LargeShare*100), c.Policy, c.InternalPct, c.ExternalPct)
	}
	t.Render(os.Stdout)
	return nil
}

func ablationCluster(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.AblationClustering(ctx, pool, sc)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A4: clustering × grow factor on TS (rbuddy, 5 sizes)",
		"Clustered", "Grow", "Sequential%", "Internal%")
	for _, c := range cells {
		t.AddRow(c.Clustered, c.GrowFactor, c.SeqPct, c.InternalPct)
	}
	t.Render(os.Stdout)
	return nil
}

func ablationScheduler(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	for _, wl := range []string{"TP", "SC"} {
		cells, err := experiments.AblationScheduler(ctx, pool, sc, wl)
		if err != nil {
			return err
		}
		t := report.NewTable(fmt.Sprintf("Ablation A5 (%s): drive queue discipline", wl),
			"Scheduler", "Application%", "Sequential%", "Mean lat (ms)", "P95 lat (ms)")
		for _, c := range cells {
			t.AddRow(c.Scheduler.String(), c.AppPct, c.SeqPct, c.MeanLatencyMS, c.P95LatencyMS)
		}
		t.Render(os.Stdout)
	}
	return nil
}

func ablationRealloc(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.AblationRealloc(ctx, pool, sc)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A6: Koch's nightly reallocator on the buddy system",
		"Workload", "Int% before", "Int% after", "Ext% before", "Ext% after", "Compacted", "Failed")
	for _, c := range cells {
		t.AddRow(c.Workload, c.InternalBefore, c.After, c.ExternalBefore, c.ExternalAfter,
			c.Compacted, c.Failed)
	}
	t.Render(os.Stdout)
	return nil
}

func fleetTable(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.FleetTable(ctx, pool, sc)
	if err != nil {
		return err
	}
	t := report.NewTable("Cluster mode (TP app, open-loop): fleet scaling, routing, admission",
		"Instances", "Routing", "Admission", "Rate/s", "Throughput%", "Mean lat (ms)", "P95 (ms)", "Reject%", "Skew")
	for _, c := range cells {
		t.AddRow(c.Instances, c.Routing, c.Admission, c.RatePerSec,
			fmt.Sprintf("%.2f", c.Percent), fmt.Sprintf("%.2f", c.MeanLatencyMS),
			fmt.Sprintf("%.0f", c.P95LatencyMS), fmt.Sprintf("%.2f", c.RejectPct),
			fmt.Sprintf("%.3f", c.UtilSkew))
	}
	t.Render(os.Stdout)
	return nil
}

func metadataTable(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.MetadataTable(ctx, pool, sc)
	if err != nil {
		return err
	}
	t := report.NewTable("Metadata footprint after the allocation test ([STON81] comparison)",
		"Workload", "Policy", "Files", "Descriptors", "Metadata", "% of data")
	for _, c := range cells {
		t.AddRow(c.Workload, c.Policy, c.Files, c.Descriptors,
			units.Format(c.MetaBytes), fmt.Sprintf("%.2f", c.MetaPctOfData))
	}
	t.Render(os.Stdout)
	return nil
}

func ablationSkew(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.AblationSkew(ctx, pool, sc)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A7 (TP): hot-relation skew (Zipf s)",
		"HotSkew", "Application%", "Mean lat (ms)")
	for _, c := range cells {
		label := "uniform"
		if c.HotSkew > 0 {
			label = fmt.Sprintf("%.1f", c.HotSkew)
		}
		t.AddRow(label, c.AppPct, c.MeanLatencyMS)
	}
	t.Render(os.Stdout)
	return nil
}

func ablationFreeList(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	cells, err := experiments.AblationFreeList(ctx, pool, sc)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A8 (TS): fixed-block free-list aging",
		"Free list", "Sequential%", "Application%")
	for _, c := range cells {
		t.AddRow(c.Policy, c.SeqPct, c.AppPct)
	}
	t.Render(os.Stdout)
	return nil
}

func traceReplay(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	rows, err := experiments.TraceTable(ctx, pool, sc, tableArrivals)
	if err != nil {
		return err
	}
	src := "built-in demo trace"
	if tableArrivals != nil {
		src = fmt.Sprintf("%d-op trace", len(tableArrivals.Trace))
	}
	t := report.NewTable(fmt.Sprintf("Trace replay (TP, open-loop %s): per-policy throughput and latency", src),
		"Policy", "Ops", "Throughput%", "Mean lat (ms)", "P95 lat (ms)")
	for _, r := range rows {
		t.AddRow(r.Policy, r.Ops, fmt.Sprintf("%.2f", r.Percent),
			fmt.Sprintf("%.2f", r.MeanLatencyMS), fmt.Sprintf("%.0f", r.P95LatencyMS))
	}
	t.Render(os.Stdout)
	return nil
}

func agingTable(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	rows, err := experiments.AgingTable(ctx, pool, sc)
	if err != nil {
		return err
	}
	t := report.NewTable("Aging: free-space decay under multi-day TS churn",
		"Policy", "Sim time", "Util%", "Int%", "Ext%", "Free frags", "Largest free", "Files", "Mean file", "Alloc fails")
	for _, r := range rows {
		n := len(r.Result.Samples)
		if n == 0 {
			continue
		}
		for _, idx := range []int{0, n / 4, n / 2, 3 * n / 4, n - 1} {
			s := r.Result.Samples[idx]
			t.AddRow(r.Policy, fmt.Sprintf("%.1fh", s.SimMS/3.6e6),
				fmt.Sprintf("%.1f", s.Utilization*100),
				fmt.Sprintf("%.2f", s.InternalPct), fmt.Sprintf("%.2f", s.ExternalPct),
				s.FreeFragments, s.LargestFreeUnits, s.Files,
				units.Format(int64(s.MeanFileBytes)), s.AllocFails)
		}
	}
	t.Render(os.Stdout)
	return nil
}

func compactionTable(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	rows, err := experiments.CompactionTable(ctx, pool, sc)
	if err != nil {
		return err
	}
	t := report.NewTable("Compaction (TP app, rbuddy-5-g1-clus): log-structured overlay cost",
		"Overlay", "Throughput%", "Mean lat (ms)", "P95 lat (ms)", "Segments", "Merges", "Merged", "Write amp")
	for _, r := range rows {
		if r.Compaction == nil {
			t.AddRow(r.Overlay, fmt.Sprintf("%.2f", r.Percent),
				fmt.Sprintf("%.2f", r.MeanLatencyMS), fmt.Sprintf("%.0f", r.P95LatencyMS),
				"-", "-", "-", "-")
			continue
		}
		c := r.Compaction
		t.AddRow(r.Overlay, fmt.Sprintf("%.2f", r.Percent),
			fmt.Sprintf("%.2f", r.MeanLatencyMS), fmt.Sprintf("%.0f", r.P95LatencyMS),
			c.Segments, c.Merges, units.Format(c.MergeWriteBytes), fmt.Sprintf("%.2fx", c.WriteAmp))
	}
	t.Render(os.Stdout)
	return nil
}

func faultTable(ctx context.Context, pool *runner.Pool, sc experiments.Scale) error {
	for _, wl := range []string{"TP", "TS"} {
		cells, err := experiments.FaultTable(ctx, pool, sc, wl, tableFaults)
		if err != nil {
			return err
		}
		t := report.NewTable(fmt.Sprintf("Fault injection (%s): RAID-5 throughput, healthy vs failure+rebuild", wl),
			"Policy", "Healthy%", "Faulted%", "Degraded (s)", "Rebuilt", "Transient", "Retries", "Permanent")
		for _, c := range cells {
			rebuilt := "incomplete"
			if c.RebuildDone {
				rebuilt = units.Format(c.RebuildBytes)
			}
			t.AddRow(c.Policy, c.HealthyPct, c.FaultedPct,
				fmt.Sprintf("%.1f", c.DegradedMS/1000), rebuilt,
				c.TransientErrors, c.Retries, c.PermanentErrors)
		}
		t.Render(os.Stdout)
	}
	return nil
}

func renderFrag(title string, cells []experiments.FragCell) {
	t := report.NewTable(title, "Workload", "Policy", "Internal%", "External%")
	for _, c := range cells {
		t.AddRow(c.Workload, c.Policy, c.InternalPct, c.ExternalPct)
	}
	t.Render(os.Stdout)
}

func renderPerf(title string, cells []experiments.PerfCell) {
	t := report.NewTable(title, "Workload", "Policy", "Application%", "Sequential%")
	for _, c := range cells {
		t.AddRow(c.Workload, c.Policy, c.AppPct, c.SeqPct)
	}
	t.Render(os.Stdout)
}
