package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rofs/internal/obs"
)

// syncBuf is a concurrency-safe access-log sink: the middleware writes
// records from handler goroutines while tests read.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, ln := range strings.Split(b.buf.String(), "\n") {
		if strings.TrimSpace(ln) != "" {
			out = append(out, ln)
		}
	}
	return out
}

// accessRecords polls the log until each of traces has a record, and
// returns every record decoded, by trace (the middleware writes the
// record after the handler returns, so the response can arrive before
// the line does).
func accessRecords(t *testing.T, buf *syncBuf, traces ...string) map[string][]map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		lines := buf.lines()
		recs := make(map[string][]map[string]any)
		for _, ln := range lines {
			var rec map[string]any
			if err := json.Unmarshal([]byte(ln), &rec); err != nil {
				t.Fatalf("access log line is not JSON: %v\n%s", err, ln)
			}
			trace, _ := rec["trace"].(string)
			recs[trace] = append(recs[trace], rec)
		}
		missing := 0
		for _, trace := range traces {
			if len(recs[trace]) == 0 {
				missing++
			}
		}
		if missing == 0 {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log has no record for %d of %d traces:\n%s",
				missing, len(traces), strings.Join(lines, "\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceRoundTripAndAccessLog pins the tracing contract end to end:
// a caller-supplied X-Rofs-Trace-Id is adopted and echoed on the status
// document; a missing one is minted; and each request produces exactly
// one structured access record carrying the trace, the run lifecycle
// spans, and the outcome.
func TestTraceRoundTripAndAccessLog(t *testing.T) {
	buf := &syncBuf{}
	_, c := newTestServer(t, Options{Jobs: 2, AccessLog: buf})

	// Caller-supplied trace, propagated via the client context.
	mine := obs.TraceIDFromUint64(0xfeedface)
	ctx := obs.WithTraceID(context.Background(), mine)
	st, err := c.SubmitWait(ctx, shortReq())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %q, want done", st.State)
	}
	if st.TraceID != mine {
		t.Errorf("status trace = %q, want the submitted %q", st.TraceID, mine)
	}

	// No trace supplied: the server mints a well-formed one.
	req := shortReq()
	req.Seed = 43
	st2, err := c.SubmitWait(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.ValidTraceID(st2.TraceID) {
		t.Errorf("minted trace %q is not a valid trace ID", st2.TraceID)
	}
	if st2.TraceID == mine {
		t.Error("minted trace collided with the supplied one")
	}

	recs := accessRecords(t, buf, mine, st2.TraceID)
	for _, rs := range recs {
		for _, rec := range rs {
			if rec["msg"] != "access" {
				t.Errorf("record msg = %v, want access", rec["msg"])
			}
		}
	}
	for _, want := range []string{mine, st2.TraceID} {
		if n := len(recs[want]); n != 1 {
			t.Errorf("trace %s has %d access records, want exactly 1", want, n)
		}
	}

	// The ?wait=1 record carries the full lifecycle.
	submitRec := recs[mine][0]
	for _, key := range []string{"route", "status", "dur_ms", "run", "spec", "spec_key",
		"queue_ms", "run_ms", "encode_ms", "cached", "coalesced", "outcome"} {
		if _, ok := submitRec[key]; !ok {
			t.Errorf("submit access record missing %q: %v", key, submitRec)
		}
	}
	if submitRec["route"] != "submit" || submitRec["outcome"] != StateDone {
		t.Errorf("submit record route/outcome = %v/%v, want submit/done",
			submitRec["route"], submitRec["outcome"])
	}
}

// TestMetricsExpositionWellFormed drives a few requests (including a
// rejection) and then validates the whole /metrics exposition: every
// line parses, every sample belongs to a declared TYPE family, histogram
// buckets are cumulative and consistent, and the new phase, coalesce,
// and Go-runtime series are present with sane values.
func TestMetricsExpositionWellFormed(t *testing.T) {
	s, c := newTestServer(t, Options{Jobs: 1, QueueDepth: 1})
	ctx := context.Background()

	if _, err := c.SubmitWait(ctx, shortReq()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitWait(ctx, shortReq()); err != nil { // cache hit
		t.Fatal(err)
	}

	// Overload: slot held, queue full, so a third submission is rejected.
	held := holdCapacity(t, c, Options{Jobs: 1, QueueDepth: 1})
	if _, err := c.Submit(ctx, longReq(11)); err == nil {
		t.Fatal("expected a 503 with the queue full")
	}
	for _, id := range held {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
		waitForState(t, c, id, StateCanceled)
	}

	sc := scrapeMetrics(t, c)
	if sc == nil {
		t.FailNow()
	}

	// Every sample must belong to a TYPE-declared family.
	for _, smp := range sc.Samples {
		family := smp.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(smp.Name, suffix); base != smp.Name {
				if _, ok := sc.Types[base]; ok {
					family = base
					break
				}
			}
		}
		if _, ok := sc.Types[family]; !ok {
			t.Errorf("sample %s has no TYPE declaration", smp.Name)
		}
		if smp.Labels["component"] != "rofs-server" {
			t.Errorf("sample %s lacks the component label: %v", smp.Name, smp.Labels)
		}
	}

	// Phase histograms observed the lifecycle.
	for _, name := range []string{
		"rofs_service_phase_ms_admit",
		"rofs_service_phase_ms_queue",
		"rofs_service_phase_ms_run",
		"rofs_service_phase_ms_encode",
	} {
		if sc.Types[name] != "histogram" {
			t.Errorf("%s: TYPE = %q, want histogram", name, sc.Types[name])
			continue
		}
		if v, ok := sc.Value(name + "_count"); !ok || v < 1 {
			t.Errorf("%s_count = %v (present %t), want >= 1", name, v, ok)
		}
	}

	// Go runtime gauges carry live values.
	if v, _ := sc.Value("rofs_go_goroutines"); v < 1 {
		t.Errorf("rofs_go_goroutines = %v, want >= 1", v)
	}
	if v, _ := sc.Value("rofs_go_heap_alloc_bytes"); v <= 0 {
		t.Errorf("rofs_go_heap_alloc_bytes = %v, want > 0", v)
	}
	if _, ok := sc.Value("rofs_go_gc_pause_ms_count"); !ok {
		t.Error("rofs_go_gc_pause_ms histogram missing")
	}

	// Disposition counters line up with what the test drove. The pool
	// mirror equals the pool's own Stats: both short runs and the slot
	// holder reached the pool, and the filler did too unless its cancel
	// beat the holder's slot release.
	pool := s.Pool().Stats()
	if pool.Submitted < 3 {
		t.Errorf("pool saw %d submissions, want >= 3", pool.Submitted)
	}
	for name, want := range map[string]float64{
		"rofs_service_runs_admitted": 4,
		"rofs_service_runs_done":     2,
		"rofs_service_runs_cached":   1,
		"rofs_service_runs_rejected": 1,
		"rofs_service_runs_canceled": 2,
		"rofs_pool_runs_submitted":   float64(pool.Submitted),
		"rofs_pool_runs_cached":      1,
	} {
		if v, _ := sc.Value(name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	if _, ok := sc.Value("rofs_service_runs_coalesced"); !ok {
		t.Error("rofs_service_runs_coalesced missing")
	}
	if _, ok := sc.Value("rofs_pool_runs_coalesced"); !ok {
		t.Error("rofs_pool_runs_coalesced missing")
	}
}

// TestSSESlowConsumerNoGoroutineLeak opens event streams that stop
// reading, then tears the connections down and checks the handler
// goroutines unwind — a slow or dead SSE consumer must not pin server
// goroutines past its connection.
func TestSSESlowConsumerNoGoroutineLeak(t *testing.T) {
	_, c := newTestServer(t, Options{Jobs: 1, Heartbeat: 2 * time.Millisecond})
	sub, err := c.Submit(context.Background(), longReq(77))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, sub.ID, StateRunning)

	base := runtime.NumGoroutine()

	transport := &http.Transport{}
	client := &http.Client{Transport: transport}
	const streams = 8
	cancels := make([]context.CancelFunc, 0, streams)
	for i := 0; i < streams; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			c.BaseURL+"/v1/runs/"+sub.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Read just the first event, then stop consuming: heartbeats pile
		// into the unread connection from here on.
		one := make([]byte, 64)
		if _, err := resp.Body.Read(one); err != nil {
			t.Fatalf("stream %d: first read: %v", i, err)
		}
	}

	// Let heartbeats accumulate against the stalled consumers.
	time.Sleep(50 * time.Millisecond)
	if g := runtime.NumGoroutine(); g < base {
		t.Fatalf("goroutines fell below baseline while streams open: %d < %d", g, base)
	}

	for _, cancel := range cancels {
		cancel()
	}
	transport.CloseIdleConnections()

	// The SSE handlers must notice the disconnects and return.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not unwind: baseline %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := c.Cancel(context.Background(), sub.ID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, sub.ID, StateCanceled)
}

// TestSubmitRetryHonorsRetryAfter: a 503-rejected submission is retried
// after the server's Retry-After hint, and succeeds once capacity frees
// up; with capacity still held, retries exhaust and surface the 503.
func TestSubmitRetryHonorsRetryAfter(t *testing.T) {
	opts := Options{Jobs: 1, QueueDepth: 1, RetryAfter: time.Second}
	_, c := newTestServer(t, opts)
	ctx := context.Background()
	held := holdCapacity(t, c, opts)

	// Exhausted retries surface the APIError (two attempts, both 503).
	start := time.Now()
	_, err := c.SubmitRetry(ctx, shortReq(), 1)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want a 503 APIError", err)
	}
	if waited := time.Since(start); waited < time.Second {
		t.Errorf("retry waited %v, want at least the 1s Retry-After", waited)
	}
	if apiErr.TraceID == "" {
		t.Error("503 APIError carries no trace ID")
	}

	// Free capacity mid-retry: the resubmission goes through.
	go func() {
		time.Sleep(300 * time.Millisecond)
		for _, id := range held {
			c.Cancel(ctx, id)
		}
	}()
	sub, err := c.SubmitRetry(ctx, shortReq(), 3)
	if err != nil {
		t.Fatalf("retry after capacity freed: %v", err)
	}
	st, err := c.Wait(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Errorf("state = %q, want done", st.State)
	}
}

// TestRetryDelayParsing covers the Retry-After fallback paths.
func TestRetryDelayParsing(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"2", 2 * time.Second},
		{" 1 ", time.Second},
		{"0", 0},
		{"", 750 * time.Millisecond},
		{"soon", 750 * time.Millisecond},
		{"-3", 750 * time.Millisecond},
	}
	for _, tc := range cases {
		e := &APIError{Code: 503, RetryAfter: tc.header}
		if got := e.RetryDelay(750 * time.Millisecond); got != tc.want {
			t.Errorf("RetryDelay(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
	if (&APIError{Code: 503}).Retryable() != true {
		t.Error("503 not retryable")
	}
	if (&APIError{Code: 400}).Retryable() {
		t.Error("400 retryable")
	}
}
