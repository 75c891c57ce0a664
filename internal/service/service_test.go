package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rofs/internal/metrics"
	"rofs/internal/runner"
)

// newTestServer spins up a Server behind an httptest listener and returns
// a Client pointed at it. Cleanup closes both (Close cancels any runs the
// test left behind, so a failing test cannot hang the suite).
func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, &Client{BaseURL: ts.URL}
}

// shortReq is a fast cell: the TS application test, simulated-time capped
// low enough that a run takes well under a second.
func shortReq() RunRequest {
	return RunRequest{Policy: "buddy", Workload: "TS", Test: "app", MaxSimMS: 15_000}
}

// longReq is a run that effectively never finishes on its own — the prop
// for overload and cancellation tests: an unreachable stabilization
// criterion keeps the throughput phase from stopping early, and the
// simulated-time cap is ~12 virtual days. Distinct seeds keep distinct
// cache keys, so two long runs never coalesce.
func longReq(seed int64) RunRequest {
	return RunRequest{Policy: "buddy", Workload: "TS", Test: "app",
		MaxSimMS: 1e9, StableWindows: 1 << 30, Seed: seed}
}

// holdCapacity fills every worker slot and then the admission queue with
// longReq runs, so that any further submission is shed whatever its
// timing, and returns the holders' run IDs.
func holdCapacity(t *testing.T, c *Client, opts Options) []string {
	t.Helper()
	var ids []string
	for i := 0; i < opts.Jobs+opts.QueueDepth; i++ {
		sub, err := c.Submit(context.Background(), longReq(int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		want := StateQueued
		if i < opts.Jobs {
			want = StateRunning
		}
		waitForState(t, c, sub.ID, want)
		ids = append(ids, sub.ID)
	}
	return ids
}

// waitForState polls a run's status until it reaches want (fatal on
// timeout or on passing want by to a different terminal state).
func waitForState(t *testing.T, c *Client, id, want string) RunStatus {
	t.Helper()
	start := time.Now()
	deadline := start.Add(15 * time.Second)
	for {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == want {
			t.Logf("waitForState(%s, %s): %v", id, want, time.Since(start))
			return st
		}
		terminal := st.State == StateDone || st.State == StateFailed || st.State == StateCanceled
		if terminal || time.Now().After(deadline) {
			t.Fatalf("run %s is %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResultMatchesDirectPoolRun is the service's core contract: a run
// served over HTTP returns exactly what a direct runner.Pool run of the
// same Spec produces — same perf or aging result, same stats, and a
// byte-identical (modulo JSON whitespace, which the transport re-indents)
// metrics bundle — for an application and an aging run.
func TestResultMatchesDirectPoolRun(t *testing.T) {
	_, c := newTestServer(t, Options{Jobs: 2})

	aging := shortReq()
	aging.Test = "aging"
	for _, req := range []RunRequest{shortReq(), aging} {
		t.Run(req.Test, func(t *testing.T) {
			st, err := c.SubmitWait(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateDone || st.Result == nil {
				t.Fatalf("unexpected terminal status: %+v", st)
			}
			got := resultOf(t, st.Result)

			// The same request, executed directly on a fresh pool
			// configured like the server, encoded through the same path.
			sp, err := req.Spec()
			if err != nil {
				t.Fatal(err)
			}
			pool := runner.New(1)
			pool.MetricsIntervalMS = metrics.DefaultIntervalMS
			res, err := pool.Run(context.Background(), []runner.Spec{sp})
			if err != nil {
				t.Fatal(err)
			}
			direct, err := newRunResult(res[0])
			if err != nil {
				t.Fatal(err)
			}

			if want := resultOf(t, direct); got != want {
				t.Errorf("%s result diverged:\nhttp:   %s\ndirect: %s", req.Test, got, want)
			}
			if got, want := mustJSON(t, st.Result.Stats), mustJSON(t, direct.Stats); got != want {
				t.Errorf("run stats diverged:\nhttp:   %s\ndirect: %s", got, want)
			}
			if len(st.Result.Metrics) == 0 || len(direct.Metrics) == 0 {
				t.Fatal("metrics bundle missing on one side")
			}
			if !strings.Contains(string(st.Result.Metrics), metrics.SchemaV1) {
				t.Errorf("HTTP metrics bundle does not declare schema %s", metrics.SchemaV1)
			}
			if got, want := compactJSON(t, st.Result.Metrics), compactJSON(t, direct.Metrics); !bytes.Equal(got, want) {
				t.Errorf("metrics bundles diverged:\nhttp:   %s\ndirect: %s", got, want)
			}
		})
	}
}

// resultOf returns the JSON of the one result a RunResult of its test
// carries, failing when that result is missing or empty.
func resultOf(t *testing.T, r *RunResult) string {
	t.Helper()
	switch {
	case r.Test == "app" && r.Perf != nil && r.Perf.Ops > 0:
		return mustJSON(t, r.Perf)
	case r.Test == "aging" && r.Aging != nil && r.Aging.Ops > 0 && len(r.Aging.Samples) > 0:
		return mustJSON(t, r.Aging)
	}
	t.Fatalf("%s result missing: %+v", r.Test, r)
	return ""
}

// TestDuplicateSpecsHitCache proves request coalescing end to end: the
// second submission of an identical Spec is served from the pool cache
// (one simulation total) with an identical payload.
func TestDuplicateSpecsHitCache(t *testing.T) {
	s, c := newTestServer(t, Options{Jobs: 2})

	first, err := c.SubmitWait(context.Background(), shortReq())
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.SubmitWait(context.Background(), shortReq())
	if err != nil {
		t.Fatal(err)
	}
	if first.State != StateDone || second.State != StateDone {
		t.Fatalf("states: %q then %q, want done/done", first.State, second.State)
	}
	if first.Result.Cached {
		t.Error("first submission claims to be cached")
	}
	if !second.Result.Cached {
		t.Error("second identical submission was re-simulated")
	}
	if got, want := mustJSON(t, second.Result.Perf), mustJSON(t, first.Result.Perf); got != want {
		t.Errorf("cached result differs from the original:\n%s\n%s", got, want)
	}
	if st := s.Pool().Stats(); st.Simulated != 1 || st.Cached != 1 {
		t.Errorf("pool stats = %+v; want 1 simulated, 1 cached", st)
	}
}

// TestOverloadRejectsWith503 exercises the bounded admission queue: with
// one worker and a one-deep queue, the third concurrent submission is
// rejected with 503 + Retry-After, and canceling the slot-holder actually
// stops its (otherwise effectively infinite) simulation.
func TestOverloadRejectsWith503(t *testing.T) {
	_, c := newTestServer(t, Options{Jobs: 1, QueueDepth: 1, RetryAfter: 2 * time.Second, Heartbeat: 20 * time.Millisecond})
	ctx := context.Background()

	a, err := c.Submit(ctx, longReq(1))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, a.ID, StateRunning)

	b, err := c.Submit(ctx, longReq(2))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, b.ID, StateQueued)

	_, err = c.Submit(ctx, longReq(3))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("third submission: err = %v, want a 503 APIError", err)
	}
	if apiErr.RetryAfter != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", apiErr.RetryAfter)
	}

	// Cancel the slot-holder: its simulation polls Config.Cancel, so the
	// run must reach the canceled state promptly instead of simulating its
	// ~12 days of virtual time.
	if _, err := c.Cancel(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, a.ID, StateCanceled)

	// With the slot free, the queued run is next; reject-then-retry works.
	waitForState(t, c, b.ID, StateRunning)
	if _, err := c.Cancel(ctx, b.ID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, b.ID, StateCanceled)

	// The rejection and dispositions land on /metrics.
	scrape, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`rofs_service_runs_rejected{component="rofs-server"} 1`,
		`rofs_service_runs_canceled{component="rofs-server"} 2`,
		`rofs_service_runs_admitted{component="rofs-server"} 2`,
	} {
		if !strings.Contains(scrape, series) {
			t.Errorf("metrics scrape missing %q", series)
		}
	}
	if !strings.Contains(scrape, "rofs_pool_runs_submitted") {
		t.Error("metrics scrape missing the pool saturation mirror")
	}
}

// TestWaitDisconnectCancelsRun proves that a synchronous (?wait=1)
// submitter owns its simulation: dropping the connection cancels the run.
func TestWaitDisconnectCancelsRun(t *testing.T) {
	_, c := newTestServer(t, Options{Jobs: 1})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.SubmitWait(ctx, longReq(4))
		errc <- err
	}()

	// Wait for the run to appear and start, then hang up.
	var id string
	deadline := time.Now().Add(15 * time.Second)
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("run never appeared in the list")
		}
		runs, err := c.List(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) > 0 {
			id = runs[0].ID
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitForState(t, c, id, StateRunning)
	cancel()
	if err := <-errc; err == nil {
		t.Error("SubmitWait returned no error after its context was canceled")
	}
	waitForState(t, c, id, StateCanceled)
}

// TestRequestTimeoutCancelsRun: a per-request timeout_ms bounds the run's
// wall time and classifies the stop as a cancellation, not a failure.
func TestRequestTimeoutCancelsRun(t *testing.T) {
	_, c := newTestServer(t, Options{Jobs: 1})
	req := longReq(5)
	req.TimeoutMS = 50
	st, err := c.SubmitWait(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Errorf("state = %q (err %q), want canceled", st.State, st.Error)
	}
}

// TestEventsStreamDeliversResult follows the SSE feed of a run: an
// immediate status event, then a terminal result event whose payload is
// the full status document including the rofs-metrics/v1 bundle.
func TestEventsStreamDeliversResult(t *testing.T) {
	_, c := newTestServer(t, Options{Jobs: 1, Heartbeat: 10 * time.Millisecond})
	sub, err := c.Submit(context.Background(), shortReq())
	if err != nil {
		t.Fatal(err)
	}

	var names []string
	var final RunStatus
	err = c.Stream(context.Background(), sub.ID, func(ev Event) bool {
		names = append(names, ev.Name)
		if ev.Name == "result" || ev.Name == "error" {
			if err := json.Unmarshal(ev.Data, &final); err != nil {
				t.Fatalf("terminal event does not decode: %v", err)
			}
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 || names[0] != "status" {
		t.Errorf("event names = %v; want an initial status event", names)
	}
	if got := names[len(names)-1]; got != "result" {
		t.Errorf("terminal event = %q, want result", got)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("terminal payload: %+v", final)
	}
	if !strings.Contains(string(final.Result.Metrics), metrics.SchemaV1) {
		t.Errorf("streamed result's metrics bundle does not declare %s", metrics.SchemaV1)
	}
}

// TestDrainStopsAdmission: draining flips readyz to 503 and rejects new
// submissions while the server finishes (here: has no) outstanding work.
func TestDrainStopsAdmission(t *testing.T) {
	s, c := newTestServer(t, Options{Jobs: 1})
	probe := func(path string) int {
		t.Helper()
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := probe("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain = %d", code)
	}
	if code := probe("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain = %d", code)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain with no runs: %v", err)
	}
	if code := probe("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", code)
	}
	_, err := c.Submit(context.Background(), shortReq())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: err = %v, want 503", err)
	}
	// Liveness is unaffected — only readiness reports the drain.
	if code := probe("/healthz"); code != http.StatusOK {
		t.Errorf("healthz during drain = %d", code)
	}
}

// TestBadRequestsRejected covers the validation surface: malformed JSON,
// unknown fields, and spec-level validation all 400, with a message that
// names the problem, without admitting.
func TestBadRequestsRejected(t *testing.T) {
	_, c := newTestServer(t, Options{Jobs: 1})
	for _, tc := range []struct{ name, body, errHas string }{
		{"malformed", `{"policy": `, "bad request body"},
		{"unknown-field", `{"policy":"buddy","workload":"TS","test":"app","blocksize":17}`, `unknown field "blocksize"`},
		{"bad-policy", `{"policy":"slab","workload":"TS","test":"app"}`, `unknown policy "slab"`},
		{"bad-workload", `{"policy":"buddy","workload":"XX","test":"app"}`, `unknown workload "XX"`},
		{"bad-degraded", `{"policy":"buddy","workload":"TS","test":"app","degraded":true}`, "requires the raid5 layout"},
		{"degraded-drive-2", `{"policy":"buddy","workload":"TS","test":"app","disks":4,"layout":"raid5",` +
			`"degraded":true,"faults":{"fail_drive":2}}`, "degraded fails drive 0; to pre-fail drive 2, use faults.pre_fail"},
		{"trace-file", `{"policy":"buddy","workload":"TP","test":"app","arrivals":{"trace_file":"ops.trace"}}`,
			"trace_file is not accepted over HTTP; send the trace inline"},
		{"removed-field", `{"policy":"buddy","workload":"TS","test":"app","checkpoint_every_ms":5000}`,
			`unknown field "checkpoint_every_ms"`},
	} {
		resp, err := http.Post(c.BaseURL+"/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorJSON
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: error body: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.errHas) {
			t.Errorf("%s: %d %q, want 400 naming %q", tc.name, resp.StatusCode, e.Error, tc.errHas)
		}
	}
	if runs, _ := c.List(context.Background()); len(runs) != 0 {
		t.Errorf("invalid submissions were admitted: %d runs", len(runs))
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func compactJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact: %v", err)
	}
	return buf.Bytes()
}
