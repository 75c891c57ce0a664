package service

import (
	"io"
	"runtime"
	"sync"
	"time"

	"rofs/internal/metrics"
	"rofs/internal/runner"
	"rofs/internal/store"
)

// latencyBoundsMS are the wall-time histogram buckets (log-spaced, ms).
var latencyBoundsMS = []float64{
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10_000, 30_000, 60_000, 300_000,
}

// serverMetrics is the server-level observability registry: HTTP request
// counters and latency histograms, admission gauges, run-disposition
// counters, and a scrape-time mirror of the pool's saturation stats. The
// registry handles are not concurrency-safe on their own, so every
// update and the export itself go through one mutex.
type serverMetrics struct {
	mu  sync.Mutex
	reg *metrics.Registry

	queueDepth *metrics.Gauge
	inFlight   *metrics.Gauge
	inFlightN  int

	admitted, rejected *metrics.Counter
	done, failed       *metrics.Counter
	canceled, cached   *metrics.Counter
	coalesced          *metrics.Counter

	queueWaitMS *metrics.Hist
	runWallMS   *metrics.Hist
	phases      map[string]*metrics.Hist

	requests  map[string]*metrics.Counter
	latencies map[string]*metrics.Hist

	// Pool mirror: gauges copied and counters delta-advanced from
	// runner.Stats at scrape time. Stats is the pool's only record of its
	// activity, and reading it per scrape shares no lock with the pool's
	// hot path.
	poolQueue, poolInFlight               *metrics.Gauge
	poolPeakQueue, poolPeakInFlight       *metrics.Gauge
	poolSubmitted, poolCached, poolFailed *metrics.Counter
	poolCoalesced                         *metrics.Counter
	poolDiskHits, poolStoreErrors         *metrics.Counter
	poolCacheEvictions                    *metrics.Counter
	poolCacheEntries, poolCacheBytes      *metrics.Gauge
	lastPool                              runner.Stats

	// Disk-store mirror, same delta pattern over store.Stats.
	storeHits, storeMisses    *metrics.Counter
	storePuts, storeEvictions *metrics.Counter
	storeCompactions          *metrics.Counter
	storeQuarantined          *metrics.Counter
	storeErrors               *metrics.Counter
	storeRecords, storeLive   *metrics.Gauge
	storeDead, storeSegs      *metrics.Gauge
	lastStore                 store.Stats

	// Go runtime health, refreshed at scrape time from runner.Stats'
	// runtime snapshot plus a local ReadMemStats for the GC pause ring.
	goroutines *metrics.Gauge
	heapAlloc  *metrics.Gauge
	heapSys    *metrics.Gauge
	gcRuns     *metrics.Counter
	gcPauseMS  *metrics.Hist
	lastNumGC  uint32

	started time.Time
	uptime  *metrics.Gauge
}

// Server-side request phases, in lifecycle order: validate+admit, wait
// for a worker slot, simulate, encode the result. Each gets a latency
// histogram service.phase_ms.<phase>.
const (
	phaseAdmit  = "admit"
	phaseQueue  = "queue"
	phaseRun    = "run"
	phaseEncode = "encode"
)

// gcPauseBoundsMS are the GC pause histogram buckets (log-spaced, ms);
// pauses are far shorter than request latencies, so they get their own
// sub-millisecond scale.
var gcPauseBoundsMS = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

func newServerMetrics() *serverMetrics {
	reg := metrics.New(metrics.DefaultIntervalMS)
	reg.SetLabel("component", "rofs-server")
	m := &serverMetrics{
		reg:                reg,
		queueDepth:         reg.Gauge("service.queue_depth"),
		inFlight:           reg.Gauge("service.in_flight"),
		admitted:           reg.Counter("service.runs_admitted"),
		rejected:           reg.Counter("service.runs_rejected"),
		done:               reg.Counter("service.runs_done"),
		failed:             reg.Counter("service.runs_failed"),
		canceled:           reg.Counter("service.runs_canceled"),
		cached:             reg.Counter("service.runs_cached"),
		coalesced:          reg.Counter("service.runs_coalesced"),
		queueWaitMS:        reg.Histogram("service.queue_wait_ms", latencyBoundsMS),
		runWallMS:          reg.Histogram("service.run_wall_ms", latencyBoundsMS),
		phases:             make(map[string]*metrics.Hist),
		requests:           make(map[string]*metrics.Counter),
		latencies:          make(map[string]*metrics.Hist),
		poolQueue:          reg.Gauge("pool.queue_depth"),
		poolInFlight:       reg.Gauge("pool.in_flight"),
		poolPeakQueue:      reg.Gauge("pool.peak_queue_depth"),
		poolPeakInFlight:   reg.Gauge("pool.peak_in_flight"),
		poolSubmitted:      reg.Counter("pool.runs_submitted"),
		poolCached:         reg.Counter("pool.runs_cached"),
		poolFailed:         reg.Counter("pool.runs_failed"),
		poolCoalesced:      reg.Counter("pool.runs_coalesced"),
		poolDiskHits:       reg.Counter("pool.runs_disk_hit"),
		poolStoreErrors:    reg.Counter("pool.store_errors"),
		poolCacheEvictions: reg.Counter("pool.cache_evictions"),
		poolCacheEntries:   reg.Gauge("pool.cache_entries"),
		poolCacheBytes:     reg.Gauge("pool.cache_bytes"),
		storeHits:          reg.Counter("store.hits"),
		storeMisses:        reg.Counter("store.misses"),
		storePuts:          reg.Counter("store.puts"),
		storeEvictions:     reg.Counter("store.evictions"),
		storeCompactions:   reg.Counter("store.compactions"),
		storeQuarantined:   reg.Counter("store.quarantined"),
		storeErrors:        reg.Counter("store.errors"),
		storeRecords:       reg.Gauge("store.records"),
		storeLive:          reg.Gauge("store.live_bytes"),
		storeDead:          reg.Gauge("store.dead_bytes"),
		storeSegs:          reg.Gauge("store.segments"),
		goroutines:         reg.Gauge("go.goroutines"),
		heapAlloc:          reg.Gauge("go.heap_alloc_bytes"),
		heapSys:            reg.Gauge("go.heap_sys_bytes"),
		gcRuns:             reg.Counter("go.gc_runs"),
		gcPauseMS:          reg.Histogram("go.gc_pause_ms", gcPauseBoundsMS),
		started:            time.Now(),
		uptime:             reg.Gauge("service.uptime_seconds"),
	}
	// Register the phase histograms eagerly so every scrape exposes all
	// four series (with zero counts) from the first request on.
	for _, ph := range []string{phaseAdmit, phaseQueue, phaseRun, phaseEncode} {
		m.phases[ph] = reg.Histogram("service.phase_ms."+ph, latencyBoundsMS)
	}
	// Seed lastNumGC so GCs that happened before the server existed are
	// not replayed into the pause histogram on the first scrape.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.lastNumGC = ms.NumGC
	return m
}

// observePhase records one server-side phase latency (milliseconds).
func (m *serverMetrics) observePhase(phase string, ms float64) {
	m.mu.Lock()
	if h, ok := m.phases[phase]; ok {
		h.Observe(ms)
	}
	m.mu.Unlock()
}

// observeRequest records one finished HTTP request on the route's
// counter and latency histogram (created on first use).
func (m *serverMetrics) observeRequest(route string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.requests[route]
	if !ok {
		c = m.reg.Counter("service.http_requests." + route)
		m.requests[route] = c
	}
	h, ok := m.latencies[route]
	if !ok {
		h = m.reg.Histogram("service.request_latency_ms."+route, latencyBoundsMS)
		m.latencies[route] = h
	}
	c.Inc()
	h.Observe(float64(d) / float64(time.Millisecond))
}

func (m *serverMetrics) setQueueDepth(n int) {
	m.mu.Lock()
	m.queueDepth.Set(float64(n))
	m.mu.Unlock()
}

func (m *serverMetrics) addInFlight(delta int) {
	m.mu.Lock()
	m.inFlightN += delta
	m.inFlight.Set(float64(m.inFlightN))
	m.mu.Unlock()
}

func (m *serverMetrics) observeQueueWait(d time.Duration) {
	m.mu.Lock()
	m.queueWaitMS.Observe(float64(d) / float64(time.Millisecond))
	m.mu.Unlock()
}

func (m *serverMetrics) countAdmitted() {
	m.mu.Lock()
	m.admitted.Inc()
	m.mu.Unlock()
}

func (m *serverMetrics) countRejected() {
	m.mu.Lock()
	m.rejected.Inc()
	m.mu.Unlock()
}

// countFinished records a run's terminal disposition.
func (m *serverMetrics) countFinished(state string, res runner.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch state {
	case StateDone:
		m.done.Inc()
	case StateCanceled:
		m.canceled.Inc()
	default:
		m.failed.Inc()
	}
	if res.Cached {
		m.cached.Inc()
	}
	if res.Coalesced {
		m.coalesced.Inc()
	}
	if res.Err == nil {
		m.runWallMS.Observe(res.Wall.Seconds() * 1000)
	}
}

// write syncs the pool and store mirrors and uptime, then renders the
// registry in Prometheus text exposition format. ss is nil when the
// server runs without a disk store.
func (m *serverMetrics) write(w io.Writer, ps runner.Stats, ss *store.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.poolQueue.Set(float64(ps.QueueDepth))
	m.poolInFlight.Set(float64(ps.InFlight))
	m.poolPeakQueue.Set(float64(ps.PeakQueueDepth))
	m.poolPeakInFlight.Set(float64(ps.PeakInFlight))
	m.poolCacheEntries.Set(float64(ps.CacheEntries))
	m.poolCacheBytes.Set(float64(ps.CacheBytes))
	m.poolSubmitted.Add(ps.Submitted - m.lastPool.Submitted)
	m.poolCached.Add(ps.Cached - m.lastPool.Cached)
	m.poolFailed.Add(ps.Failed - m.lastPool.Failed)
	m.poolCoalesced.Add(ps.Coalesced - m.lastPool.Coalesced)
	m.poolDiskHits.Add(ps.DiskHits - m.lastPool.DiskHits)
	m.poolStoreErrors.Add(ps.StoreErrors - m.lastPool.StoreErrors)
	m.poolCacheEvictions.Add(ps.CacheEvictions - m.lastPool.CacheEvictions)
	m.lastPool = ps
	if ss != nil {
		m.storeRecords.Set(float64(ss.Records))
		m.storeLive.Set(float64(ss.LiveBytes))
		m.storeDead.Set(float64(ss.DeadBytes))
		m.storeSegs.Set(float64(ss.Segments))
		m.storeHits.Add(ss.Hits - m.lastStore.Hits)
		m.storeMisses.Add(ss.Misses - m.lastStore.Misses)
		m.storePuts.Add(ss.Puts - m.lastStore.Puts)
		m.storeEvictions.Add(ss.Evictions - m.lastStore.Evictions)
		m.storeCompactions.Add(ss.Compactions - m.lastStore.Compactions)
		m.storeQuarantined.Add(ss.Quarantined - m.lastStore.Quarantined)
		m.storeErrors.Add((ss.GetErrors + ss.PutErrors) - (m.lastStore.GetErrors + m.lastStore.PutErrors))
		m.lastStore = *ss
	}
	m.goroutines.Set(float64(ps.Runtime.Goroutines))
	m.heapAlloc.Set(float64(ps.Runtime.HeapAllocBytes))
	m.heapSys.Set(float64(ps.Runtime.HeapSysBytes))
	m.syncGCPauses()
	m.uptime.Set(time.Since(m.started).Seconds())
	m.reg.Write(w, metrics.Prometheus)
}

// syncGCPauses advances the GC counter and pause histogram from the
// runtime's 256-entry pause ring. Cycles that fell off the ring between
// scrapes (never at realistic scrape intervals) are counted but their
// pauses skipped. Caller holds m.mu.
func (m *serverMetrics) syncGCPauses() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.NumGC <= m.lastNumGC {
		return
	}
	m.gcRuns.Add(int64(ms.NumGC - m.lastNumGC))
	for n := m.lastNumGC + 1; n <= ms.NumGC; n++ {
		if ms.NumGC-n >= uint32(len(ms.PauseNs)) {
			continue
		}
		pause := ms.PauseNs[(n+uint32(len(ms.PauseNs))-1)%uint32(len(ms.PauseNs))]
		m.gcPauseMS.Observe(float64(pause) / 1e6)
	}
	m.lastNumGC = ms.NumGC
}
