// Command rofs-load drives a rofs-server with a reproducible mixed
// workload and measures the serving path from the client side: latency
// percentiles, throughput, cache/coalesce rates, and 503 shedding,
// cross-checked against the server's own /metrics counters.
//
// Two driving modes:
//
//	closed  N workers, each submitting the next request as soon as the
//	        previous one finishes (throughput bounded by the server)
//	open    target arrival rate with Poisson interarrivals, independent
//	        of completions (exposes queueing and shedding)
//
// The request mix is deterministic for a fixed -seed: "fresh" requests
// use a never-before-seen simulation seed (full simulation cost),
// "repeat" requests draw from a small pool of -distinct specs (cache
// hits and single-flight coalescing), and "heavy" requests carry an
// oversized simulated-time cap (long worker occupancy, the natural way
// to push a small queue into 503 shedding). Every request carries a
// deterministic trace ID derived from (-seed, index) via the
// X-Rofs-Trace-Id header, so each one can be matched to exactly one
// server access-log record.
//
// While driving, rofs-load scrapes /metrics on -scrape intervals,
// validating the exposition format on every scrape. The final report —
// schema rofs-load/v1, written with -json — embeds per-class stats, the
// scrape timeline, every request outcome, and an agreement block
// comparing client-observed completions and rejections against the
// server's counter deltas.
//
// Examples:
//
//	rofs-load -mode closed -workers 4 -duration 30s -json report.json
//	rofs-load -mode open -rps 20 -heavy-frac 0.2 -duration 1m
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"rofs/internal/obs"
	"rofs/internal/service"
	"rofs/internal/workload"
)

func main() {
	fs := flag.NewFlagSet("rofs-load", flag.ExitOnError)
	var (
		serverFlag   = fs.String("server", envOr("ROFS_SERVER", "http://127.0.0.1:8080"), "rofs-server base URL")
		modeFlag     = fs.String("mode", "closed", "closed (N workers) | open (Poisson arrivals)")
		workersFlag  = fs.Int("workers", 4, "closed loop: concurrent workers")
		rpsFlag      = fs.Float64("rps", 8, "open loop: target arrival rate (requests/second)")
		durationFlag = fs.Duration("duration", 10*time.Second, "how long to drive load")
		rampFlag     = fs.Duration("ramp", 0, "warmup excluded from latency and throughput stats")
		seedFlag     = fs.Int64("seed", 42, "request-mix and trace-ID seed")

		distinctFlag = fs.Int("distinct", 8, "size of the repeatable spec pool")
		repeatFlag   = fs.Float64("repeat-frac", 0.4, "fraction of requests drawn from the repeatable pool")
		heavyFlag    = fs.Float64("heavy-frac", 0, "fraction of requests with an oversized sim cap")
		baseSimFlag  = fs.Float64("base-sim", 15_000, "simulated-time cap (ms) for fresh and repeat requests")
		heavySimFlag = fs.Float64("heavy-sim", 120_000, "simulated-time cap (ms) for heavy requests")

		traceFlag = fs.String("arrival-trace", "", "open-loop trace file attached inline to every fresh request")

		scrapeFlag   = fs.Duration("scrape", time.Second, "metrics scrape interval (0 disables)")
		timeoutFlag  = fs.Duration("timeout", 2*time.Minute, "per-request client timeout")
		inflightFlag = fs.Int("max-inflight", 256, "open loop: in-flight cap (excess arrivals are dropped client-side)")
		jsonFlag     = fs.String("json", "", "write the rofs-load/v1 report to this file (- for stdout)")
	)
	fs.Parse(os.Args[1:])

	if *modeFlag != "closed" && *modeFlag != "open" {
		fatal("unknown -mode %q (want closed or open)", *modeFlag)
	}
	if *repeatFlag < 0 || *heavyFlag < 0 || *repeatFlag+*heavyFlag > 1 {
		fatal("-repeat-frac and -heavy-frac must be non-negative and sum to at most 1")
	}
	if *distinctFlag < 1 {
		fatal("-distinct must be at least 1")
	}
	if *rampFlag >= *durationFlag {
		fatal("-ramp must be shorter than -duration")
	}

	client := &service.Client{BaseURL: *serverFlag}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !client.Healthy(5 * time.Second) {
		fatal("server %s is not answering /healthz", *serverFlag)
	}

	// Baseline scrape before any load, so agreement deltas exclude runs
	// the server served earlier in its life.
	first, err := scrapeOnce(ctx, client)
	if err != nil {
		fatal("baseline scrape: %v", err)
	}

	gen := &generator{
		rng:        rand.New(rand.NewSource(*seedFlag)),
		seed:       *seedFlag,
		distinct:   *distinctFlag,
		repeatFrac: *repeatFlag,
		heavyFrac:  *heavyFlag,
		baseSimMS:  *baseSimFlag,
		heavySimMS: *heavySimFlag,
	}
	if *traceFlag != "" {
		// The server rejects trace_file by design (it won't read the
		// submitter's filesystem), so the file is loaded here and shipped
		// inline in each request body.
		a, err := workload.LoadTraceFile(*traceFlag)
		if err != nil {
			fatal("%v", err)
		}
		gen.arrivals = a
	}

	scraper := newScraper(client, *scrapeFlag)
	start := time.Now()
	deadline := start.Add(*durationFlag)
	rampEnd := start.Add(*rampFlag)
	scraper.start(ctx, start)

	var outcomes []outcome
	var dropped int64
	if *modeFlag == "closed" {
		outcomes = driveClosed(ctx, client, gen, *workersFlag, deadline, rampEnd, *timeoutFlag)
	} else {
		outcomes, dropped = driveOpen(ctx, client, gen, *rpsFlag, *inflightFlag, start, deadline, rampEnd, *timeoutFlag)
	}
	elapsed := time.Since(start)
	scraper.stop()

	// Final scrape only after every in-flight request has resolved, so
	// the server's counters have settled to their terminal values.
	last, err := scrapeOnce(ctx, client)
	if err != nil {
		fatal("final scrape: %v", err)
	}
	if err := scraper.err(); err != nil {
		fatal("metrics scrape during load: %v", err)
	}

	rep := buildReport(reportInputs{
		mode: *modeFlag, server: *serverFlag,
		workers: *workersFlag, rps: *rpsFlag,
		duration: *durationFlag, ramp: *rampFlag, elapsed: elapsed,
		seed: *seedFlag, dropped: dropped,
		outcomes: outcomes, scrapes: scraper.points(),
		first: first, last: last,
	})

	printSummary(os.Stdout, rep)
	if *jsonFlag != "" {
		if err := writeReport(*jsonFlag, rep); err != nil {
			fatal("%v", err)
		}
		if *jsonFlag != "-" {
			fmt.Fprintf(os.Stderr, "rofs-load: wrote %s\n", *jsonFlag)
		}
	}
	if !rep.Agreement.OK {
		fatal("client/server accounting disagrees: %+v", rep.Agreement)
	}
}

// generator produces the deterministic request stream. All randomness
// flows through one rand.Rand consumed from a single goroutine, so a
// fixed seed yields the same class sequence, spec choices, and (open
// loop) interarrival gaps.
type generator struct {
	rng        *rand.Rand
	seed       int64
	distinct   int
	repeatFrac float64
	heavyFrac  float64
	baseSimMS  float64
	heavySimMS float64
	arrivals   *workload.Arrivals // optional, attached to fresh requests

	fresh, heavy int // never-reused seed sequences
}

// item is one generated request plus its identity.
type item struct {
	idx   int
	class string
	ramp  bool
	trace string
	req   service.RunRequest
}

// Request classes.
const (
	classFresh  = "fresh"
	classRepeat = "repeat"
	classHeavy  = "heavy"
)

// next generates request idx. Trace IDs mix the seed and index through
// a 64-bit multiply so distinct (seed, idx) pairs map to distinct IDs
// within any realistic run length.
func (g *generator) next(idx int, ramp bool) item {
	it := item{
		idx:   idx,
		ramp:  ramp,
		trace: obs.TraceIDFromUint64(uint64(g.seed)*0x9E3779B97F4A7C15 + uint64(idx)),
		req: service.RunRequest{
			Policy:   "buddy",
			Workload: "TS",
			Test:     "app",
			Scale:    "bench",
			MaxSimMS: g.baseSimMS,
		},
	}
	r := g.rng.Float64()
	switch {
	case r < g.heavyFrac:
		it.class = classHeavy
		g.heavy++
		it.req.Seed = 2_000_000 + int64(g.heavy)
		it.req.MaxSimMS = g.heavySimMS
		// Disable early stabilization so heavy runs occupy a worker for
		// their whole simulated span.
		it.req.StableWindows = 1 << 20
	case r < g.heavyFrac+g.repeatFrac:
		it.class = classRepeat
		// Small fixed pool: repeats of the same member share a Spec key,
		// exercising the cache (sequential repeats) and single-flight
		// coalescing (concurrent repeats).
		it.req.Seed = 1 + int64(g.rng.Intn(g.distinct))
	default:
		it.class = classFresh
		g.fresh++
		it.req.Seed = 1_000_000 + int64(g.fresh)
		// Replay the imported trace (if any) instead of the closed-loop
		// mix. Repeat and heavy requests keep their classes' semantics:
		// cache hits need stable spec keys, heavy needs the long sim cap.
		it.req.Arrivals = g.arrivals
	}
	it.req.Name = fmt.Sprintf("load-%s-%06d", it.class, idx)
	return it
}

// driveClosed runs the closed loop: one generator goroutine feeding N
// workers, each submitting synchronously (?wait=1) until the deadline.
func driveClosed(ctx context.Context, client *service.Client, gen *generator,
	workers int, deadline, rampEnd time.Time, timeout time.Duration) []outcome {
	items := make(chan item)
	go func() {
		defer close(items)
		for idx := 0; ; idx++ {
			now := time.Now()
			if !now.Before(deadline) {
				return
			}
			it := gen.next(idx, now.Before(rampEnd))
			select {
			case items <- it:
			case <-ctx.Done():
				return
			}
		}
	}()

	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				oc := submitOne(ctx, client, it, timeout, time.Time{})
				mu.Lock()
				out = append(out, oc)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// driveOpen runs the open loop: Poisson arrivals at the target rate,
// each request in its own goroutine. Arrivals beyond the in-flight cap
// are dropped client-side (and reported) rather than distorting the
// arrival process by blocking. A request's latency runs from its due
// time, so a generator that falls behind shows up in the latencies.
func driveOpen(ctx context.Context, client *service.Client, gen *generator,
	rps float64, maxInflight int, start, deadline, rampEnd time.Time, timeout time.Duration) ([]outcome, int64) {
	if rps <= 0 {
		fatal("-rps must be positive in open mode")
	}
	var mu sync.Mutex
	var out []outcome
	var dropped int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxInflight)

	pace(ctx, gen.rng, rps, start, deadline, func(idx int, due time.Time) {
		it := gen.next(idx, due.Before(rampEnd))
		select {
		case sem <- struct{}{}:
		default:
			dropped++
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			oc := submitOne(ctx, client, it, timeout, due)
			mu.Lock()
			out = append(out, oc)
			mu.Unlock()
		}()
	})
	wg.Wait()
	return out, dropped
}

// pace calls arrive for each Poisson arrival at rps per second due by
// deadline. Due times are start plus the running sum of the drawn gaps,
// so the time arrive takes and timer slack never delay later arrivals.
// It stops early when ctx is done.
func pace(ctx context.Context, rng *rand.Rand, rps float64, start, deadline time.Time,
	arrive func(idx int, due time.Time)) {
	var sec float64
	for idx := 0; ; idx++ {
		sec += rng.ExpFloat64() / rps
		due := start.Add(time.Duration(sec * float64(time.Second)))
		if due.After(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			return
		}
		arrive(idx, due)
	}
}

// submitOne issues one traced ?wait=1 submission and classifies how it
// ended: a terminal run state, a 503 rejection, or a transport error.
// Latency runs from due, an open-loop arrival's due time, and LateMS
// records how long after it the request was sent; a zero due (closed
// loop) times from the send.
func submitOne(ctx context.Context, client *service.Client, it item, timeout time.Duration, due time.Time) outcome {
	oc := outcome{Trace: it.trace, Class: it.class, Ramp: it.ramp}
	rctx, cancel := context.WithTimeout(obs.WithTraceID(ctx, it.trace), timeout)
	defer cancel()
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	oc.LateMS = float64(sent.Sub(due)) / float64(time.Millisecond)
	st, err := client.SubmitWait(rctx, it.req)
	oc.DurMS = obs.Since(due)
	var apiErr *service.APIError
	switch {
	case err == nil:
		oc.Status = st.State
		oc.RunID = st.ID
		if st.Result != nil {
			oc.Cached = st.Result.Cached
			oc.Coalesced = st.Result.Coalesced
			oc.DiskHit = st.Result.DiskHit
		}
	case errors.As(err, &apiErr) && apiErr.Code == http.StatusServiceUnavailable:
		oc.Status = statusRejected
	default:
		oc.Status = statusError
		oc.Error = err.Error()
	}
	return oc
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rofs-load: "+format+"\n", args...)
	os.Exit(1)
}
