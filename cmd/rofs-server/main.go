// Command rofs-server serves simulations over HTTP: POST a run request,
// stream its progress and final metrics bundle over SSE, scrape /metrics
// for server and pool saturation. See EXPERIMENTS.md "Serving simulations"
// for the API reference.
//
// Usage:
//
//	rofs-server -addr :8080 -jobs 8 -queue 32
//	rofs-server -addr 127.0.0.1:0 -addr-file /tmp/rofs.addr   # scripts
//	rofs-server -access-log access.jsonl -pprof-addr 127.0.0.1:6060
//
// SIGTERM (or SIGINT) drains gracefully: admission stops (readyz goes
// 503), in-flight runs get -drain to finish, stragglers are canceled,
// and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr registers these handlers on DefaultServeMux
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rofs/internal/metrics"
	"rofs/internal/prof"
	"rofs/internal/service"
	"rofs/internal/store"
	"rofs/internal/units"
)

func main() {
	var (
		addrFlag     = flag.String("addr", ":8080", "listen address (host:port; port 0 picks one)")
		addrFileFlag = flag.String("addr-file", "", "write the bound address to this file once listening")
		jobsFlag     = flag.Int("jobs", 0, "maximum simulations running at once (0: one per CPU)")
		queueFlag    = flag.Int("queue", 16, "admission queue bound; beyond it submissions get 503 + Retry-After")
		runTimeout   = flag.Duration("run-timeout", 0, "default per-run wall-time cap (0: none; requests may set their own)")
		drainFlag    = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget before in-flight runs are canceled")

		metricsIntFlag = flag.Float64("metrics-interval", metrics.DefaultIntervalMS,
			"per-run timeline sampling interval (simulated ms; negative disables run bundles)")

		storeDirFlag = flag.String("store-dir", "",
			"persist results to this directory; identical submissions after a restart are served from it (empty disables)")
		storeMaxFlag = flag.String("store-max-bytes", "256M",
			"result-store byte budget; least recently used records beyond it are evicted (K/M/G suffixes)")
		cacheEntriesFlag = flag.Int("cache-entries", 0,
			"bound the in-memory result cache to this many entries, LRU-evicted (0: unbounded)")

		accessLogFlag = flag.String("access-log", "",
			"write one JSON access record per request to this file (- for stderr; empty disables)")
		pprofFlag = flag.String("pprof-addr", "",
			"serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")

		cpuProfFlag  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfFlag  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		execTraceFlg = flag.String("exectrace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	stopProf, err := prof.Start(prof.Flags{CPUProfile: *cpuProfFlag, MemProfile: *memProfFlag, Trace: *execTraceFlg})
	if err != nil {
		fatal("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "rofs-server: %v\n", err)
		}
	}()

	var accessLog io.Writer
	var accessFile *os.File
	switch *accessLogFlag {
	case "":
	case "-":
		accessLog = os.Stderr
	default:
		accessFile, err = os.OpenFile(*accessLogFlag, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal("%v", err)
		}
		defer accessFile.Close()
		accessLog = accessFile
	}

	// The pprof endpoint binds its own listener (usually loopback-only),
	// so profiling exposure is independent of the serving address and off
	// unless asked for. DefaultServeMux carries the net/http/pprof
	// handlers via its package init.
	if *pprofFlag != "" {
		pln, err := net.Listen("tcp", *pprofFlag)
		if err != nil {
			fatal("pprof listener: %v", err)
		}
		fmt.Fprintf(os.Stderr, "rofs-server: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "rofs-server: pprof server: %v\n", err)
			}
		}()
	}

	var resultStore *store.Store
	if *storeDirFlag != "" {
		maxBytes, err := units.ParseSize(*storeMaxFlag)
		if err != nil {
			fatal("-store-max-bytes: %v", err)
		}
		if resultStore, err = store.Open(*storeDirFlag, store.Options{MaxBytes: maxBytes}); err != nil {
			fatal("%v", err)
		}
		defer resultStore.Close()
		st := resultStore.Stats()
		fmt.Fprintf(os.Stderr, "rofs-server: result store %s: %d records, %d live bytes (budget %d)\n",
			*storeDirFlag, st.Records, st.LiveBytes, maxBytes)
	}

	svc := service.New(service.Options{
		Jobs:              *jobsFlag,
		QueueDepth:        *queueFlag,
		RunTimeout:        *runTimeout,
		MetricsIntervalMS: *metricsIntFlag,
		AccessLog:         accessLog,
		Store:             resultStore,
		CacheEntries:      *cacheEntriesFlag,
	})

	// Catch SIGTERM before the listener opens: a client that sees /readyz
	// answer may signal at once, and a SIGTERM that arrives before the
	// handler would kill the process instead of draining it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fatal("%v", err)
	}
	addr := ln.Addr().String()
	if *addrFileFlag != "" {
		if err := os.WriteFile(*addrFileFlag, []byte(addr+"\n"), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "rofs-server: listening on %s (jobs=%d queue=%d)\n",
		addr, svcJobs(*jobsFlag), *queueFlag)

	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fatal("%v", err)
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintf(os.Stderr, "rofs-server: draining (budget %s)\n", *drainFlag)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "rofs-server: drain deadline hit; canceled remaining runs\n")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "rofs-server: shutdown: %v\n", err)
	}

	st := svc.Pool().Stats()
	fmt.Fprintf(os.Stderr,
		"rofs-server: served %d runs (%d simulated, %d cached, %d disk hits, %d failed), peak in-flight %d, peak queue %d\n",
		st.Submitted, st.Simulated, st.Cached, st.DiskHits, st.Failed, st.PeakInFlight, st.PeakQueueDepth)
	if resultStore != nil {
		ss := resultStore.Stats()
		fmt.Fprintf(os.Stderr, "rofs-server: store: %d records, %d live bytes, %d puts, %d evictions, %d compactions\n",
			ss.Records, ss.LiveBytes, ss.Puts, ss.Evictions, ss.Compactions)
	}
}

// svcJobs mirrors the service's default for the startup log line.
func svcJobs(jobs int) int {
	if jobs > 0 {
		return jobs
	}
	return runtime.GOMAXPROCS(0)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rofs-server: "+format+"\n", args...)
	os.Exit(1)
}
