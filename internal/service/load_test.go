package service

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"rofs/internal/metrics"
	"rofs/internal/obs"
	"rofs/internal/runner"
)

// loadOutcome is one traced ?wait=1 submission of a load pass as its
// client saw it.
type loadOutcome struct {
	trace  string
	req    RunRequest
	code   int        // HTTP status; 0 after a transport error
	served string     // a done run's disposition, else its state; "shed" for a 503
	result *RunResult // of a done run
}

// TestServingUnderLoad drives an in-process server with a seeded,
// concurrent request mix and checks its books: the runs the clients saw
// finish and the 503s they got equal the server's counter deltas, every
// traced request has exactly one access record, every /metrics scrape
// taken under load is well formed, and every run served from the memory
// cache, a coalesced flight or the store carries the bytes a direct pool
// run of its spec produces. Every result is a pure function of its run
// description, so none of this depends on wall-clock timing.
//
//   - closed: workers send a mix of fresh specs and repeats of a few.
//   - shed: longReq runs hold the only slot and the queue, so every
//     request of a concurrent burst is shed; the test then cancels the
//     holders and counts those cancellations on its own side.
//   - restart: the closed mix runs twice over one store, on a new server
//     each pass. The pool stores every completed run before it answers,
//     so the second pass simulates nothing.
func TestServingUnderLoad(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    Options
		seed    int64 // of the request mix and the trace IDs
		n       int   // requests per pass
		workers int
		hold    bool // fill every slot and the queue before the burst
		restart bool // a second pass on a new server over the same store
		check   func(t *testing.T, pass int, served map[string]int)
	}{
		{name: "closed", opts: Options{Jobs: 2}, seed: 42, n: 48, workers: 3,
			check: func(t *testing.T, _ int, served map[string]int) {
				if served["memory-hit"]+served["coalesced"] == 0 {
					t.Errorf("no repeat was served from the cache: %v", served)
				}
			}},
		{name: "shed", opts: Options{Jobs: 1, QueueDepth: 1}, seed: 7, n: 8, workers: 8, hold: true,
			check: func(t *testing.T, _ int, served map[string]int) {
				if served["shed"] != 8 {
					t.Errorf("burst into a full server: %v, want all 8 shed", served)
				}
			}},
		{name: "restart", opts: Options{Jobs: 2}, seed: 99, n: 32, workers: 3, restart: true,
			check: func(t *testing.T, pass int, served map[string]int) {
				if pass == 1 && (served["simulated"] > 0 || served["disk-hit"] == 0) {
					t.Errorf("pass over a warm store: %v, want disk hits and nothing simulated", served)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			passes := 1
			if tc.restart {
				passes = 2
			}
			for pass := 0; pass < passes; pass++ {
				opts := tc.opts
				log := &syncBuf{}
				opts.AccessLog = log
				if tc.restart {
					opts.Store = openTestStore(t, dir)
					t.Cleanup(func() { opts.Store.Close() })
				}
				s, c := newTestServer(t, opts)
				first := scrapeMetrics(t, c)
				reqs := loadMix(tc.seed, tc.n, tc.workers)
				var held []string
				if tc.hold {
					held = holdCapacity(t, c, opts)
					// A burst request admitted in error times out in the
					// queue rather than waiting behind the holders forever.
					for i := range reqs {
						reqs[i].TimeoutMS = 1
					}
				}
				outs := sendLoad(t, c, tc.seed, reqs, tc.workers)
				for _, id := range held {
					if _, err := c.Cancel(context.Background(), id); err != nil {
						t.Fatal(err)
					}
					waitForState(t, c, id, StateCanceled)
				}
				last := scrapeMetrics(t, c)

				finished, shed := len(held), 0
				served := make(map[string]int)
				for _, oc := range outs {
					served[oc.served]++
					switch oc.code {
					case http.StatusOK:
						finished++
					case http.StatusServiceUnavailable:
						shed++
					default:
						t.Errorf("%s: HTTP status %d", oc.trace, oc.code)
					}
				}
				t.Logf("pass %d: %v", pass, served)
				if got := runsDelta(first, last, "rofs_service_runs_done",
					"rofs_service_runs_failed", "rofs_service_runs_canceled"); got != float64(finished) {
					t.Errorf("clients saw %d runs finish, server counted %v", finished, got)
				}
				if got := runsDelta(first, last, "rofs_service_runs_rejected"); got != float64(shed) {
					t.Errorf("clients got %d 503s, server counted %v rejections", shed, got)
				}
				checkAccessRecords(t, log, outs)
				checkAgainstDirectRuns(t, outs)
				tc.check(t, pass, served)
				s.Close()
				if opts.Store != nil {
					opts.Store.Close()
				}
			}
		})
	}
}

// loadMix is n shortReq-sized requests drawn from seed. The first
// workers requests share one spec. The workers send them at once, so
// the requests that win worker slots share a spec, and all but one of
// them coalesce onto its simulation. Of the rest, about 40 % are repeats
// of four seeds, which the cache serves or coalesces, and the others are
// fresh seeds, one per request.
func loadMix(seed int64, n, workers int) []RunRequest {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]RunRequest, n)
	for i := range reqs {
		reqs[i] = shortReq()
		switch {
		case i < workers:
			reqs[i].Seed = 1
		case rng.Float64() < 0.4:
			reqs[i].Seed = 1 + rng.Int63n(4)
		default:
			reqs[i].Seed = 1000 + int64(i)
		}
	}
	return reqs
}

// loadTrace is the trace ID of request i of the pass with this seed.
func loadTrace(seed int64, i int) string {
	return obs.TraceIDFromUint64(uint64(seed)<<32 | uint64(i))
}

// sendLoad sends reqs from workers concurrent clients as traced ?wait=1
// submissions and returns their outcomes in request order. A client
// scrapes /metrics after every fourth request, so that scrapes land
// while the others' runs are in flight.
func sendLoad(t *testing.T, c *Client, seed int64, reqs []RunRequest, workers int) []loadOutcome {
	out := make([]loadOutcome, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = submitTraced(t, c, loadTrace(seed, i), reqs[i])
				if i%4 == 0 {
					scrapeMetrics(t, c)
				}
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// submitTraced sends one ?wait=1 submission under trace and checks that
// the server adopted the trace and that a 200 carries a finished run.
func submitTraced(t *testing.T, c *Client, trace string, req RunRequest) loadOutcome {
	oc := loadOutcome{trace: trace, req: req}
	st, err := c.SubmitWait(obs.WithTraceID(context.Background(), trace), req)
	echo := st.TraceID
	var apiErr *APIError
	switch {
	case err == nil && st.State == StateDone && st.Result != nil:
		oc.code, oc.served, oc.result = http.StatusOK, st.Result.Disposition, st.Result
	case err == nil:
		t.Errorf("%s: run ended %s: %s", trace, st.State, st.Error)
		oc.code, oc.served = http.StatusOK, st.State
	case errors.As(err, &apiErr):
		oc.code, echo = apiErr.Code, apiErr.TraceID
		if apiErr.Code == http.StatusServiceUnavailable {
			oc.served = "shed"
		}
	default:
		t.Errorf("%s: %v", trace, err)
		return oc
	}
	if echo != trace {
		t.Errorf("%s: the server answered under trace %q", trace, echo)
	}
	return oc
}

// scrapeMetrics fetches /metrics and checks that it parses and that its
// histograms are consistent. It returns nil after reporting a failure.
func scrapeMetrics(t *testing.T, c *Client) *obs.Scrape {
	body, err := c.Metrics(context.Background())
	if err != nil {
		t.Errorf("scrape: %v", err)
		return nil
	}
	sc, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		t.Errorf("exposition does not parse: %v", err)
		return nil
	}
	if err := sc.CheckHistograms(); err != nil {
		t.Errorf("histogram invariants: %v", err)
	}
	return sc
}

// runsDelta is how far the named counters, summed, rose from first to
// last; NaN when either scrape failed.
func runsDelta(first, last *obs.Scrape, names ...string) float64 {
	if first == nil || last == nil {
		return math.NaN()
	}
	var d float64
	for _, name := range names {
		a, _ := first.Value(name)
		b, _ := last.Value(name)
		d += b - a
	}
	return d
}

// checkAccessRecords checks that each request of a pass has exactly one
// access record, with the status its client saw.
func checkAccessRecords(t *testing.T, log *syncBuf, outs []loadOutcome) {
	t.Helper()
	traces := make([]string, len(outs))
	for i, oc := range outs {
		traces[i] = oc.trace
	}
	recs := accessRecords(t, log, traces...)
	for _, oc := range outs {
		switch rs := recs[oc.trace]; {
		case len(rs) != 1:
			t.Errorf("trace %s has %d access records, want exactly 1", oc.trace, len(rs))
		case rs[0]["msg"] != "access" || rs[0]["status"] != float64(oc.code):
			t.Errorf("trace %s: record msg %v status %v, want access %d", oc.trace, rs[0]["msg"], rs[0]["status"], oc.code)
		}
	}
}

// checkAgainstDirectRuns checks every run a pass was served from the
// memory cache, a coalesced flight or the store against a direct run of
// its spec on a fresh pool, which simulates each spec once: the perf,
// the stats and the metrics bundle must be the same bytes.
func checkAgainstDirectRuns(t *testing.T, outs []loadOutcome) {
	t.Helper()
	var hits []loadOutcome
	var at []int // hits[i]'s spec is specs[at[i]]
	var specs []runner.Spec
	index := make(map[string]int)
	for _, oc := range outs {
		switch oc.served {
		case "memory-hit", "coalesced", "disk-hit":
			sp, err := oc.req.Spec()
			if err != nil {
				t.Fatal(err)
			}
			i, ok := index[sp.Key()]
			if !ok {
				i = len(specs)
				index[sp.Key()] = i
				specs = append(specs, sp)
			}
			hits, at = append(hits, oc), append(at, i)
		}
	}
	direct := runner.New(2)
	direct.MetricsIntervalMS = metrics.DefaultIntervalMS
	res, err := direct.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, oc := range hits {
		want, err := newRunResult(res[at[i]])
		if err != nil {
			t.Fatal(err)
		}
		got := oc.result
		if mustJSON(t, got.Perf) != mustJSON(t, want.Perf) || mustJSON(t, got.Stats) != mustJSON(t, want.Stats) ||
			!bytes.Equal(compactJSON(t, got.Metrics), compactJSON(t, want.Metrics)) {
			t.Errorf("%s (%s, seed %d) differs from a direct pool run of its spec", oc.trace, oc.served, oc.req.Seed)
		}
	}
}
