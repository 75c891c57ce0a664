// Command rofs-client drives a rofs-server: submit simulation runs, wait
// for or stream their results, and render them as tables — so sweeps can
// be pointed at a remote server instead of simulating locally.
//
// Usage:
//
//	rofs-client [command] [flags]
//
// Commands:
//
//	run      submit a run and wait for its result (default)
//	submit   submit a run, print its id, return immediately
//	wait     -id run-000001: follow a run to completion, print the result
//	stream   -id run-000001: print the raw SSE event feed
//	status   -id run-000001: one status snapshot
//	cancel   -id run-000001: stop a run
//	list     every run the server remembers
//
// Examples:
//
//	rofs-client run -policy buddy -workload TS -test app
//	rofs-client run -policy fixed -block 4K -workload TS -test app -json
//	rofs-client submit -policy rbuddy -sizes 5 -grow 1 -workload SC -test seq
//	rofs-client wait -id run-000001 -metrics bundle.json
//
// The server address comes from -server or the ROFS_SERVER environment
// variable (default http://127.0.0.1:8080). Error messages carry the
// response's X-Rofs-Trace-Id, the key into the server's access log;
// -retries N resubmits 503-rejected runs, honoring Retry-After.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rofs/internal/report"
	"rofs/internal/service"
	"rofs/internal/units"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}

	fs := flag.NewFlagSet("rofs-client "+cmd, flag.ExitOnError)
	var (
		serverFlag  = fs.String("server", envOr("ROFS_SERVER", "http://127.0.0.1:8080"), "rofs-server base URL")
		idFlag      = fs.String("id", "", "run id (wait, stream, status, cancel)")
		jsonFlag    = fs.Bool("json", false, "print raw JSON instead of tables")
		metricsOut  = fs.String("metrics", "", "write the run's rofs-metrics/v1 bundle to this file (- for stdout)")
		retriesFlag = fs.Int("retries", 0, "run/submit: resubmit up to N times on 503, honoring Retry-After")

		// The run description: the same flags, defaults and parser
		// (RunRequest.Spec) as rofsim and the server.
		runFlags = service.AddRunFlags(fs, service.DefaultRequest())

		nameFlag   = fs.String("name", "", "presentation label for the run")
		stableFlag = fs.Int("stable-windows", 0,
			"consecutive in-tolerance windows before a throughput run stops early (0: server default)")
		timeoutFlag = fs.Duration("timeout", 0, "server-side wall-time cap for the run (e.g. 2m)")
	)
	fs.Parse(args)

	client := &service.Client{BaseURL: *serverFlag}
	// Ctrl-C cancels the in-flight HTTP call; for ?wait=1 submissions the
	// server cancels the simulation too (disconnect propagates to
	// Config.Cancel).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// request is the run that run and submit send, checked here by the
	// same Spec the server applies, so a bad description fails with the
	// server's message before any network call.
	request := func() service.RunRequest {
		req, err := runFlags.Request()
		if err != nil {
			fatal("%v", err)
		}
		req.Name = *nameFlag
		req.StableWindows = *stableFlag
		req.TimeoutMS = float64(*timeoutFlag) / float64(time.Millisecond)
		if _, err := req.Spec(); err != nil {
			fatal("%v", err)
		}
		return req
	}

	switch cmd {
	case "run":
		sub, err := client.SubmitRetry(ctx, request(), *retriesFlag)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "rofs-client: submitted %s; waiting\n", sub.ID)
		st, err := client.Wait(ctx, sub.ID)
		if err != nil {
			fatal("%v", err)
		}
		finish(st, *jsonFlag, *metricsOut)
	case "submit":
		sub, err := client.SubmitRetry(ctx, request(), *retriesFlag)
		if err != nil {
			fatal("%v", err)
		}
		if *jsonFlag {
			printJSON(sub)
			return
		}
		fmt.Println(sub.ID)
	case "wait":
		st, err := client.Wait(ctx, need(*idFlag))
		if err != nil {
			fatal("%v", err)
		}
		finish(st, *jsonFlag, *metricsOut)
	case "stream":
		err := client.Stream(ctx, need(*idFlag), func(ev service.Event) bool {
			fmt.Printf("%s\t%s\n", ev.Name, ev.Data)
			return true
		})
		if err != nil {
			fatal("%v", err)
		}
	case "status":
		st, err := client.Status(ctx, need(*idFlag))
		if err != nil {
			fatal("%v", err)
		}
		finish(st, *jsonFlag, *metricsOut)
	case "cancel":
		st, err := client.Cancel(ctx, need(*idFlag))
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "rofs-client: %s -> %s\n", st.ID, st.State)
	case "list":
		runs, err := client.List(ctx)
		if err != nil {
			fatal("%v", err)
		}
		if *jsonFlag {
			printJSON(runs)
			return
		}
		t := report.NewTable("", "ID", "State", "Label", "Detail")
		for _, st := range runs {
			t.AddRow(st.ID, st.State, st.Label, detail(st))
		}
		t.Render(os.Stdout)
	default:
		fatal("unknown command %q (want run, submit, wait, stream, status, cancel, or list)", cmd)
	}
}

// finish renders a terminal (or snapshot) status and exits nonzero for
// failed and canceled runs so scripts can branch on the outcome.
func finish(st service.RunStatus, asJSON bool, metricsOut string) {
	if metricsOut != "" && st.Result != nil && len(st.Result.Metrics) > 0 {
		if err := writeBundle(metricsOut, st.Result.Metrics); err != nil {
			fatal("%v", err)
		}
		if metricsOut != "-" {
			fmt.Fprintf(os.Stderr, "rofs-client: wrote metrics bundle to %s\n", metricsOut)
		}
	}
	if asJSON {
		printJSON(st)
	} else {
		renderStatus(st)
	}
	switch st.State {
	case service.StateDone, service.StateQueued, service.StateRunning:
	default:
		os.Exit(1)
	}
}

// renderStatus prints the human view: a table per result kind.
func renderStatus(st service.RunStatus) {
	switch {
	case st.Result != nil && st.Result.Frag != nil:
		f := st.Result.Frag
		t := report.NewTable(fmt.Sprintf("%s  %s  (%s)", st.ID, st.Label, note(st)),
			"Internal%", "External%", "Filled", "Ops", "ExtentsPerFile")
		t.AddRow(fmt.Sprintf("%.2f", f.InternalPct), fmt.Sprintf("%.2f", f.ExternalPct),
			f.Filled, f.Ops, fmt.Sprintf("%.1f", f.ExtentsPerFile))
		t.Render(os.Stdout)
	case st.Result != nil && st.Result.Perf != nil:
		p := st.Result.Perf
		t := report.NewTable(fmt.Sprintf("%s  %s  (%s)", st.ID, st.Label, note(st)),
			"Throughput%", "Stable", "MeanLatMS", "P95LatMS", "Ops", "Moved")
		t.AddRow(fmt.Sprintf("%.6f", p.Percent), p.Stable, fmt.Sprintf("%.2f", p.MeanLatencyMS),
			fmt.Sprintf("%.0f", p.P95LatencyMS), p.Ops, units.Format(p.Bytes))
		t.Render(os.Stdout)
		if fr := p.Faults; fr != nil {
			ft := report.NewTable("Fault report",
				"DriveFails", "Transient", "Retries", "Permanent", "Degraded (s)", "Rebuilt")
			rebuilt := "-"
			switch {
			case fr.Rebuilds > 0:
				rebuilt = units.Format(fr.RebuildBytes)
			case fr.DegradedAtEnd:
				rebuilt = "incomplete"
			}
			ft.AddRow(fr.DriveFailures, fr.TransientErrors, fr.Retries, fr.PermanentErrors,
				fmt.Sprintf("%.1f", fr.DegradedMS/1000), rebuilt)
			ft.Render(os.Stdout)
		}
		if cr := p.Cluster; cr != nil {
			admit := cr.Admission
			if admit == "" {
				admit = "none"
			}
			ct := report.NewTable(
				fmt.Sprintf("Cluster report  (%d instances, routing=%s admission=%s, skew %.3f)",
					cr.Instances, cr.Routing, admit, cr.UtilSkew),
				"Inst", "Routed", "Ops", "Throughput%", "MeanLatMS", "Util", "Faulted")
			for _, ip := range cr.PerInstance {
				ct.AddRow(ip.Index, ip.Routed, ip.Ops, fmt.Sprintf("%.2f", ip.Percent),
					fmt.Sprintf("%.2f", ip.MeanLatencyMS), fmt.Sprintf("%.3f", ip.Utilization), ip.Faulted)
			}
			ct.Render(os.Stdout)
			if cr.Arrivals > 0 {
				fmt.Printf("admission: %d arrivals, %d admitted, %d rejected (%.1f%%)\n",
					cr.Arrivals, cr.Admitted, cr.Rejected, cr.RejectPct)
			}
		}
		if co := p.Compaction; co != nil {
			cot := report.NewTable(fmt.Sprintf("Compaction report (%s)", co.Policy),
				"Segments", "Merges", "Flushed", "MergeRead", "MergeWritten", "WriteAmp", "Live")
			cot.AddRow(co.Segments, co.Merges, units.Format(co.FlushBytes),
				units.Format(co.MergeReadBytes), units.Format(co.MergeWriteBytes),
				fmt.Sprintf("%.2f", co.WriteAmp), fmt.Sprintf("%v", co.Live))
			cot.Render(os.Stdout)
		}
	case st.Result != nil && st.Result.Aging != nil:
		a := st.Result.Aging
		t := report.NewTable(fmt.Sprintf("%s  %s  (%s)", st.ID, st.Label, note(st)),
			"Sim time", "Util%", "Ext%", "FreeFrags", "LargestFree", "Files", "Ops")
		f := a.Final()
		t.AddRow(fmt.Sprintf("%.1fh", a.SimMS/3.6e6), fmt.Sprintf("%.1f", f.Utilization*100),
			fmt.Sprintf("%.2f", f.ExternalPct), f.FreeFragments, f.LargestFreeUnits,
			f.Files, a.Ops)
		t.Render(os.Stdout)
	case st.Error != "":
		fmt.Printf("%s  %s  state=%s: %s\n", st.ID, st.Label, st.State, st.Error)
	default:
		pos := ""
		if st.Position > 0 {
			pos = fmt.Sprintf(" (queue position %d)", st.Position)
		}
		fmt.Printf("%s  %s  state=%s%s\n", st.ID, st.Label, st.State, pos)
	}
}

// note summarizes how the run was served for the table title.
func note(st service.RunStatus) string {
	if st.Result == nil {
		return st.State
	}
	how := st.Result.Disposition
	if how == "" {
		// Older servers send no disposition; reconstruct the coarse view.
		how = "simulated"
		if st.Result.Cached {
			how = "cached"
		}
		if st.Result.DiskHit {
			how = "disk-hit"
		}
	}
	return fmt.Sprintf("%s in %.2fs, %s", how, st.Result.WallSeconds, st.State)
}

// detail is the list view's last column.
func detail(st service.RunStatus) string {
	switch {
	case st.Result != nil && st.Result.Perf != nil:
		return fmt.Sprintf("%.2f%% of max", st.Result.Perf.Percent)
	case st.Result != nil && st.Result.Frag != nil:
		return fmt.Sprintf("int %.2f%% / ext %.2f%%", st.Result.Frag.InternalPct, st.Result.Frag.ExternalPct)
	case st.Result != nil && st.Result.Aging != nil:
		f := st.Result.Aging.Final()
		return fmt.Sprintf("%d free frags after %.1fh", f.FreeFragments, st.Result.Aging.SimMS/3.6e6)
	case st.Error != "":
		return st.Error
	case st.Position > 0:
		return fmt.Sprintf("queue position %d", st.Position)
	default:
		return ""
	}
}

func writeBundle(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(append(data, '\n'))
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func need(id string) string {
	if id == "" {
		fatal("this command needs -id")
	}
	return id
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rofs-client: "+format+"\n", args...)
	os.Exit(1)
}
