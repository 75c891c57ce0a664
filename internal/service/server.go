package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"rofs/internal/core"
	"rofs/internal/metrics"
	"rofs/internal/obs"
	"rofs/internal/runner"
	"rofs/internal/store"
)

// Options configures a Server. The zero value serves with sensible
// defaults (GOMAXPROCS workers, a 16-deep admission queue, per-run
// metrics at the default sampling interval).
type Options struct {
	// Jobs is the maximum number of simulations running at once (the
	// worker-slot count). Zero means runtime.GOMAXPROCS(0).
	Jobs int
	// QueueDepth is the maximum number of admitted runs waiting for a
	// worker slot. A submission arriving with the queue full is rejected
	// with 503 + Retry-After rather than queued unboundedly. Zero means
	// 16; negative means no waiting room (reject unless a slot is free).
	QueueDepth int
	// RunTimeout bounds each run's wall time unless the request carries
	// its own timeout_ms. Zero means no default deadline.
	RunTimeout time.Duration
	// MetricsIntervalMS is the per-run registry sampling interval handed
	// to the pool: zero means metrics.DefaultIntervalMS, negative
	// disables per-run metrics (runs return no bundle).
	MetricsIntervalMS float64
	// Heartbeat is the SSE status-event cadence while a run is queued or
	// running. Zero means one second.
	Heartbeat time.Duration
	// RetryAfter is the hint returned with 503 responses. Zero means one
	// second.
	RetryAfter time.Duration
	// AccessLog receives one structured JSON record per finished HTTP
	// request (see obs.AccessRecord). Nil disables access logging; trace
	// IDs are still minted and echoed either way.
	AccessLog io.Writer
	// Store is the disk result tier handed to the pool: previously
	// computed Specs are served from it across server restarts (the
	// warm-restart byte-identity contract). Nil disables the tier. The
	// server does not close the store; the owner that opened it does.
	Store *store.Store
	// CacheEntries bounds the pool's in-memory result cache (see
	// runner.Pool.CacheEntries). Zero means unbounded.
	CacheEntries int
}

func (o Options) withDefaults() Options {
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.QueueDepth == 0:
		o.QueueDepth = 16
	case o.QueueDepth < 0:
		o.QueueDepth = 0
	}
	if o.MetricsIntervalMS == 0 {
		o.MetricsIntervalMS = metrics.DefaultIntervalMS
	}
	if o.MetricsIntervalMS < 0 {
		o.MetricsIntervalMS = 0
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// keepFinished bounds the run table: once it holds more finished runs
// than this, it forgets the one that finished longest ago, so a server's
// memory does not grow with the number of runs it has served. Queued and
// running runs are always kept.
const keepFinished = 1024

// Server owns the admission queue, the run table, and the pool that
// executes simulations. Create with New, mount Handler on an
// http.Server, and Drain on shutdown.
type Server struct {
	opts   Options
	pool   *runner.Pool
	obs    *serverMetrics
	access *obs.AccessLogger

	// slots is the worker-slot semaphore: holding a token is the right
	// to occupy one pool worker.
	slots chan struct{}

	// baseCtx parents every run's context; baseCancel is the drain
	// deadline's hard stop.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu   sync.Mutex
	runs map[string]*run
	// finished holds the ids of the finished runs still in runs, as a
	// ring in finish order; nextFinished is the slot the next one takes,
	// and the id it holds is the run to forget.
	finished     [keepFinished]string
	nextFinished int
	queued       int // admitted, waiting for a slot
	seq          int
	draining     bool
}

// New returns a ready Server. The pool (and its Spec.Key() result cache)
// lives as long as the Server, so identical Specs submitted over the
// API's lifetime simulate once.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		pool:       runner.New(opts.Jobs),
		obs:        newServerMetrics(),
		access:     obs.NewAccessLogger(opts.AccessLog),
		slots:      make(chan struct{}, opts.Jobs),
		baseCtx:    ctx,
		baseCancel: cancel,
		runs:       make(map[string]*run),
	}
	s.pool.MetricsIntervalMS = opts.MetricsIntervalMS
	s.pool.Store = opts.Store
	s.pool.CacheEntries = opts.CacheEntries
	return s
}

// Handler returns the server's routing table, wrapped in the trace
// middleware (trace-ID minting, X-Rofs-Trace-Id echo, one access record
// per request).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/runs", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /v1/runs/{id}", s.instrument("status", s.handleGet))
	mux.HandleFunc("DELETE /v1/runs/{id}", s.instrument("cancel", s.handleCancel))
	mux.HandleFunc("POST /v1/runs/{id}/cancel", s.instrument("cancel", s.handleCancel))
	mux.HandleFunc("GET /v1/runs/{id}/events", s.route("events", s.handleEvents)) // long-lived: not latency-instrumented
	mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.route("readyz", s.handleReadyz))
	return s.trace(mux)
}

// instrument wraps a handler with a per-route request counter and
// latency histogram, and tags the access record with the route name.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	h = s.route(route, h)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.obs.observeRequest(route, time.Since(start))
	}
}

// handleSubmit is POST /v1/runs: validate, admit (or 503), and either
// return the run's handle immediately or — with ?wait=1 — block until
// the result, canceling the simulation if the waiting client disconnects.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	ri := infoFrom(r.Context())
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		ri.Update(func(rec *obs.AccessRecord) { rec.Outcome = "invalid" })
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	sp, err := req.Spec()
	if err != nil {
		ri.Update(func(rec *obs.AccessRecord) { rec.Outcome = "invalid" })
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	sp.TraceID = obs.TraceIDFrom(r.Context())

	timeout := s.opts.RunTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS * float64(time.Millisecond))
	}

	rn, err := s.admit(sp, timeout)
	admitMS := obs.Since(arrived)
	s.obs.observePhase(phaseAdmit, admitMS)
	if err != nil {
		ri.Update(func(rec *obs.AccessRecord) {
			rec.Spec = sp.Label()
			rec.SpecKey = sp.Key()
			rec.AdmitMS = admitMS
			rec.Outcome = "rejected"
		})
		w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
		s.writeError(w, http.StatusServiceUnavailable, err)
		s.obs.countRejected()
		return
	}
	ri.Update(func(rec *obs.AccessRecord) {
		rec.RunID = rn.id
		rec.Spec = sp.Label()
		rec.SpecKey = sp.Key()
		rec.AdmitMS = admitMS
		rec.Outcome = "accepted"
	})

	if r.URL.Query().Get("wait") == "1" {
		s.waitAndRespond(w, r, rn)
		return
	}
	s.writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:        rn.id,
		StatusURL: "/v1/runs/" + rn.id,
		EventsURL: "/v1/runs/" + rn.id + "/events",
	})
}

// admit applies the bounded admission policy and, on acceptance, starts
// the run's executor goroutine.
func (s *Server) admit(sp runner.Spec, timeout time.Duration) (*run, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errors.New("server is draining; not admitting new runs")
	}
	if s.queued >= s.opts.QueueDepth {
		queued := s.queued
		s.mu.Unlock()
		return nil, fmt.Errorf("admission queue full (%d runs waiting); retry later", queued)
	}
	s.seq++
	id := fmt.Sprintf("run-%06d", s.seq)
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	rn := &run{
		id:     id,
		spec:   sp,
		state:  StateQueued,
		seq:    s.seq,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	s.runs[id] = rn
	s.queued++
	queued := s.queued
	s.wg.Add(1)
	s.mu.Unlock()
	s.obs.setQueueDepth(queued)
	s.obs.countAdmitted()
	go s.execute(rn)
	return rn, nil
}

// execute runs one admitted run to a terminal state: wait for a worker
// slot (or cancellation), simulate through the pool — which serves
// cache hits for Specs already run and coalesces concurrent duplicates —
// and publish the result.
func (s *Server) execute(rn *run) {
	defer s.wg.Done()
	queuedAt := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-rn.ctx.Done():
		// Canceled (or timed out, or drain deadline) while still queued.
		s.leaveQueue(rn)
		s.finalize(rn, runner.Result{Spec: rn.spec, Err: rn.ctx.Err()})
		return
	}
	s.obs.addInFlight(1)
	defer func() {
		s.obs.addInFlight(-1)
		<-s.slots
	}()
	s.leaveQueue(rn)
	queueWait := time.Since(queuedAt)
	s.obs.observeQueueWait(queueWait)
	s.obs.observePhase(phaseQueue, float64(queueWait)/float64(time.Millisecond))

	s.mu.Lock()
	rn.state = StateRunning
	rn.started = time.Now()
	rn.queueWait = queueWait
	s.mu.Unlock()

	runStart := time.Now()
	results, _ := s.pool.Run(rn.ctx, []runner.Spec{rn.spec})
	runWall := time.Since(runStart)
	s.obs.observePhase(phaseRun, float64(runWall)/float64(time.Millisecond))
	s.mu.Lock()
	rn.runWall = runWall
	s.mu.Unlock()
	s.finalize(rn, results[0])
}

// leaveQueue retires the run's queue slot (idempotent via state check).
func (s *Server) leaveQueue(rn *run) {
	s.mu.Lock()
	if rn.state == StateQueued {
		s.queued--
		s.obs.setQueueDepth(s.queued)
	}
	s.mu.Unlock()
}

// finalize records the terminal state, enters the run in the finished
// ring (forgetting the run that finished longest ago once the ring is
// full), releases the run's context and with it any -run-timeout timer,
// and wakes every waiter.
func (s *Server) finalize(rn *run, res runner.Result) {
	state := StateDone
	var result *RunResult
	var errMsg string
	var encodeMS float64
	switch {
	case res.Err != nil && isCancellation(res.Err):
		state, errMsg = StateCanceled, res.Err.Error()
	case res.Err != nil:
		state, errMsg = StateFailed, res.Err.Error()
	default:
		var err error
		encStart := time.Now()
		if result, err = newRunResult(res); err != nil {
			state, errMsg = StateFailed, err.Error()
		}
		encodeMS = obs.Since(encStart)
		s.obs.observePhase(phaseEncode, encodeMS)
	}
	s.mu.Lock()
	rn.state, rn.err, rn.result = state, errMsg, result
	rn.encodeMS = encodeMS
	rn.cached, rn.coalesced, rn.followers = res.Cached, res.Coalesced, res.Followers
	rn.diskHit, rn.disposition = res.DiskHit, disposition(res)
	if old := s.finished[s.nextFinished]; old != "" {
		delete(s.runs, old)
	}
	s.finished[s.nextFinished] = rn.id
	s.nextFinished = (s.nextFinished + 1) % keepFinished
	s.mu.Unlock()
	s.obs.countFinished(state, res)
	rn.cancel()
	close(rn.done)
}

// isCancellation classifies errors that mean "stopped on purpose" rather
// than "the simulation is broken".
func isCancellation(err error) bool {
	return errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// waitAndRespond blocks a ?wait=1 submission until its run finishes. The
// waiting client's disconnect cancels the run — a synchronous submitter
// owns its simulation — and the response is the run's final status.
func (s *Server) waitAndRespond(w http.ResponseWriter, r *http.Request, rn *run) {
	select {
	case <-rn.done:
	case <-r.Context().Done():
		rn.cancel()
		<-rn.done
	}
	s.mu.Lock()
	queueMS := float64(rn.queueWait) / float64(time.Millisecond)
	runMS := float64(rn.runWall) / float64(time.Millisecond)
	encodeMS := rn.encodeMS
	cached, coalesced, followers := rn.cached, rn.coalesced, rn.followers
	diskHit, disp := rn.diskHit, rn.disposition
	state := rn.state
	s.mu.Unlock()
	infoFrom(r.Context()).Update(func(rec *obs.AccessRecord) {
		rec.QueueMS = queueMS
		rec.RunMS = runMS
		rec.EncodeMS = encodeMS
		rec.Cached, rec.Coalesced, rec.Followers = cached, coalesced, followers
		rec.DiskHit, rec.Disposition = diskHit, disp
		rec.Outcome = state
	})
	s.writeJSON(w, http.StatusOK, s.snapshot(rn))
}

// lookup resolves {id}; a miss writes the 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*run, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	rn, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("no run %q (finished runs beyond the newest %d are not kept)", id, keepFinished))
		return nil, false
	}
	return rn, true
}

// snapshot renders a run's status document under the lock.
func (s *Server) snapshot(rn *run) RunStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return rn.status(s.queuePositionLocked(rn))
}

// queuePositionLocked counts queued runs admitted before rn, plus one.
func (s *Server) queuePositionLocked(rn *run) int {
	if rn.state != StateQueued {
		return 0
	}
	pos := 1
	for _, other := range s.runs {
		if other.state == StateQueued && other.seq < rn.seq {
			pos++
		}
	}
	return pos
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, s.snapshot(rn))
}

// handleList is GET /v1/runs: every run the table holds, in admission
// order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, rn := range s.runs {
		runs = append(runs, rn)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].seq < runs[j].seq })
	out := make([]RunStatus, len(runs))
	for i, rn := range runs {
		out[i] = rn.status(s.queuePositionLocked(rn))
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookup(w, r)
	if !ok {
		return
	}
	rn.cancel()
	s.writeJSON(w, http.StatusAccepted, s.snapshot(rn))
}

// handleEvents is the SSE stream: an immediate status event, heartbeat
// status events while the run is queued or running, and a final result
// (or error) event carrying the same document the status endpoint
// serves — including the rofs-metrics/v1 bundle. A watcher disconnecting
// does not cancel the run; only the ?wait=1 submitter owns it.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rn, ok := s.lookup(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	if err := writeSSE(w, flusher, "status", s.snapshot(rn)); err != nil {
		return
	}
	ticker := time.NewTicker(s.opts.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-rn.done:
			st := s.snapshot(rn)
			event := "result"
			if st.State != StateDone {
				event = "error"
			}
			writeSSE(w, flusher, event, st)
			return
		case <-ticker.C:
			if err := writeSSE(w, flusher, "status", s.snapshot(rn)); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics serves the server-level registry (request counters and
// latency histograms, queue-depth and in-flight gauges, pool saturation,
// disk-store activity) in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var ss *store.Stats
	if s.opts.Store != nil {
		st := s.opts.Store.Stats()
		ss = &st
	}
	s.obs.write(w, s.pool.Stats(), ss)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports admission readiness: 503 once draining starts, so
// load balancers stop routing before the listener goes away.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// Drain stops admission and waits for in-flight and queued runs to
// finish. If ctx expires first, every remaining run is canceled (their
// simulations stop at the next Config.Cancel poll) and Drain waits for
// them to unwind before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close cancels everything immediately — the test-and-error-path
// companion to Drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
}

// Pool exposes the server's pool for instrumentation summaries (the
// stats endpoint and shutdown logs read it).
func (s *Server) Pool() *runner.Pool { return s.pool }

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, errorJSON{Error: err.Error()})
}
