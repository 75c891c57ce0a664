package runner

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/metrics"
	"rofs/internal/store"
)

// Result is the outcome of one submitted Spec.
type Result struct {
	Spec    Spec
	Outcome core.Outcome
	// Err is non-nil when the run failed, panicked (the panic message and
	// stack are folded into the error), or was canceled.
	Err error
	// Wall is the real time the simulation took; for cached results it is
	// the original run's wall time.
	Wall time.Duration
	// Cached reports that the result was served from the pool's cache
	// rather than simulated by this submission.
	Cached bool
	// Coalesced refines Cached: the submission arrived while an equal
	// Spec was still simulating and waited for that run's result
	// (single-flight duplicate) rather than finding a completed entry.
	Coalesced bool
	// Followers counts the submissions that coalesced onto this result's
	// cache entry up to the moment the result was produced — for the run
	// that populated the entry, the duplicates its simulation also served.
	Followers int64
	// DiskHit reports that the result was read from the pool's disk
	// store (a prior process computed it) rather than simulated or found
	// in memory.
	DiskHit bool
	// MetricsJSON is the run's canonical rofs-metrics/v1 bundle bytes,
	// rendered once when the run finished, or read from the disk store
	// (where the live registry belongs to the process that simulated).
	// Every result served from one cache entry shares the slice, so
	// callers must not modify it. Nil when the run had metrics off.
	MetricsJSON []byte
}

// Pool executes Specs on a bounded set of workers. The zero value is
// ready to use; New sets the worker count explicitly. A Pool's cache
// lives as long as the Pool, so batches submitted through the same Pool
// share results across Run calls.
type Pool struct {
	// Jobs is the maximum number of concurrently running simulations.
	// Zero or negative means runtime.GOMAXPROCS(0).
	Jobs int

	// OnResult, when set, observes every finished run (including cached
	// and failed ones) with its submission index. Calls are serialized
	// but may arrive in any index order.
	OnResult func(index int, r Result)

	// MetricsIntervalMS, when positive, gives every simulated run a fresh
	// metrics registry sampling at that interval; the registry comes back
	// on Result.Outcome.Metrics. It is a pool-wide setting (constant for
	// the process), so the result cache stays keyed by Spec alone — a
	// cached Result carries the registry of the run that populated it.
	MetricsIntervalMS float64

	// Store, when set, is the disk tier beneath the in-memory cache:
	// misses read through to it, simulated results write through, so a
	// restarted process serves previously computed Specs byte-identically
	// without recomputation. The store key folds in MetricsIntervalMS
	// (the interval shapes the run's event sequence and bundle) but not
	// the store's own path or budget — those are operational, not part of
	// the Spec's identity.
	Store *store.Store

	// CacheEntries bounds the in-memory result cache: beyond this many
	// completed entries the least recently used are dropped (in-flight
	// entries are never evicted). Zero or negative means unbounded — the
	// pre-bound behavior.
	CacheEntries int

	mu         sync.Mutex
	cache      map[string]*cacheEntry
	lru        *list.List // completed entries, front = most recently used
	cacheBytes int64      // sum of completed entries' envelope sizes

	// statsMu guards stats.
	statsMu sync.Mutex
	stats   Stats
}

// Stats is a point-in-time snapshot of the pool's lifetime activity.
type Stats struct {
	// Submitted counts every Spec handed to Run; Simulated the ones that
	// actually ran a simulation; Cached the ones served from the pool's
	// result cache; Coalesced the subset of Cached that waited on an
	// in-flight duplicate; Failed the ones whose Result carried an error.
	Submitted, Simulated, Cached, Coalesced, Failed int64
	// DiskHits counts submissions served from the disk store;
	// StoreErrors the stored payloads that failed to decode (the run
	// re-simulated). CacheEvictions counts completed entries dropped by
	// the CacheEntries bound; CacheEntries and CacheBytes are the
	// instantaneous in-memory cache footprint (completed entries and
	// their envelope sizes).
	DiskHits, StoreErrors    int64
	CacheEvictions           int64
	CacheEntries, CacheBytes int64
	// QueueDepth and InFlight are the instantaneous values; the Peak
	// variants their lifetime maxima — the saturation signal.
	QueueDepth, InFlight         int64
	PeakQueueDepth, PeakInFlight int64
	// Runtime is a Go-runtime snapshot taken at Stats() time — the
	// process-level saturation companion to the pool's own gauges.
	Runtime RuntimeStats
}

// RuntimeStats captures the Go runtime signals served alongside pool
// saturation: goroutine count, heap occupancy, and cumulative GC work.
type RuntimeStats struct {
	Goroutines     int
	HeapAllocBytes uint64
	HeapSysBytes   uint64
	NumGC          uint32
	GCPauseTotalMS float64
}

// readRuntime snapshots the live runtime.
func readRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		NumGC:          ms.NumGC,
		GCPauseTotalMS: float64(ms.PauseTotalNs) / 1e6,
	}
}

// Stats returns a snapshot of the pool's counters and gauges, with the
// Go runtime read at call time.
func (p *Pool) Stats() Stats {
	p.statsMu.Lock()
	st := p.stats
	p.statsMu.Unlock()
	st.Runtime = readRuntime()
	return st
}

// noteCacheLocked refreshes the cache-footprint stats from
// the live structures. Caller holds p.mu (the canonical lock order is
// mu before statsMu; nothing takes them the other way).
func (p *Pool) noteCacheLocked() {
	entries := int64(0)
	if p.lru != nil {
		entries = int64(p.lru.Len())
	}
	p.statsMu.Lock()
	p.stats.CacheEntries = entries
	p.stats.CacheBytes = p.cacheBytes
	p.statsMu.Unlock()
}

// enqueue records n Specs accepted by Run.
func (p *Pool) enqueue(n int) {
	p.statsMu.Lock()
	p.stats.Submitted += int64(n)
	p.stats.QueueDepth += int64(n)
	if p.stats.QueueDepth > p.stats.PeakQueueDepth {
		p.stats.PeakQueueDepth = p.stats.QueueDepth
	}
	p.statsMu.Unlock()
}

// dequeue moves one Spec from the queue to in-flight.
func (p *Pool) dequeue() {
	p.statsMu.Lock()
	p.stats.QueueDepth--
	p.stats.InFlight++
	if p.stats.InFlight > p.stats.PeakInFlight {
		p.stats.PeakInFlight = p.stats.InFlight
	}
	p.statsMu.Unlock()
}

// finish retires one in-flight Spec with its disposition.
func (p *Pool) finish(r Result, simulated bool) {
	p.statsMu.Lock()
	p.stats.InFlight--
	if simulated {
		p.stats.Simulated++
	}
	if r.Cached {
		p.stats.Cached++
	}
	if r.Coalesced {
		p.stats.Coalesced++
	}
	if r.DiskHit {
		p.stats.DiskHits++
	}
	if r.Err != nil {
		p.stats.Failed++
	}
	p.statsMu.Unlock()
}

// cacheEntry is one key's slot: done closes when the owning run
// finishes. followers counts submissions that coalesced while the run
// was still in flight (guarded by the pool's mu). Completed entries
// join the LRU list (elem non-nil) and become evictable under the
// CacheEntries bound; in-flight entries are not listed and never evict.
type cacheEntry struct {
	key       string
	done      chan struct{}
	outcome   core.Outcome
	err       error
	wall      time.Duration
	followers int64
	diskHit   bool   // populated from the disk store, not a simulation
	metrics   []byte // the run's rendered bundle (Result.MetricsJSON)
	bytes     int64  // envelope size, the entry's CacheBytes share
	elem      *list.Element
}

// New returns a Pool running at most jobs simulations at once (0: one per
// available CPU).
func New(jobs int) *Pool { return &Pool{Jobs: jobs} }

// jobs resolves the effective worker count.
func (p *Pool) jobs() int {
	if p.Jobs > 0 {
		return p.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the Specs and returns one Result per Spec, ordered by
// submission index regardless of completion order. The first failure (in
// submission order) is also returned as the error, labeled with its Spec;
// the remaining results are still valid. Canceling ctx stops runs between
// operations (in-flight simulations poll Config.Cancel) and fails
// not-yet-started ones with ctx's error.
func (p *Pool) Run(ctx context.Context, specs []Spec) ([]Result, error) {
	results := make([]Result, len(specs))
	p.enqueue(len(specs))
	var cbMu sync.Mutex
	p.each(len(specs), func(i int) {
		results[i] = p.one(ctx, specs[i])
		if cb := p.OnResult; cb != nil {
			cbMu.Lock()
			cb(i, results[i])
			cbMu.Unlock()
		}
	})
	for i := range results {
		if err := results[i].Err; err != nil {
			return results, fmt.Errorf("%s: %w", results[i].Spec.Label(), err)
		}
	}
	return results, nil
}

// storeKey maps a Spec key to its disk-store key. The pool-wide metrics
// interval joins it because the interval shapes the run's event
// sequence and its bundle: two processes serving different intervals
// must not share stored results.
func (p *Pool) storeKey(key string) string {
	if p.MetricsIntervalMS > 0 {
		return key + fmt.Sprintf("|mi=%g", p.MetricsIntervalMS)
	}
	return key
}

// completeLocked adds a finished entry to the LRU list and enforces the
// CacheEntries bound. Caller holds p.mu.
func (p *Pool) completeLocked(e *cacheEntry) {
	e.elem = p.lru.PushFront(e)
	p.cacheBytes += e.bytes
	if p.CacheEntries > 0 {
		for p.lru.Len() > p.CacheEntries {
			v := p.lru.Back().Value.(*cacheEntry)
			if v == e {
				break // a bound of 1 keeps at least the newest entry
			}
			p.dropEntryLocked(v)
			p.statsMu.Lock()
			p.stats.CacheEvictions++
			p.statsMu.Unlock()
		}
	}
	p.noteCacheLocked()
}

// dropEntryLocked removes a completed entry from the cache and the LRU
// list. Caller holds p.mu.
func (p *Pool) dropEntryLocked(e *cacheEntry) {
	delete(p.cache, e.key)
	p.lru.Remove(e.elem)
	p.cacheBytes -= e.bytes
}

// one resolves a single Spec: from the in-memory cache when an equal
// Spec already ran (or is running) in this process, from the disk store
// when a prior process computed it, otherwise by simulating. It owns the
// Spec's queue→in-flight→finished stats transitions.
func (p *Pool) one(ctx context.Context, sp Spec) (res Result) {
	p.dequeue()
	simulated := false
	defer func() { p.finish(res, simulated) }()
	res = Result{Spec: sp}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	key := sp.Key()
	p.mu.Lock()
	if p.cache == nil {
		p.cache = make(map[string]*cacheEntry)
		p.lru = list.New()
	}
	if e, ok := p.cache[key]; ok {
		// A completed entry is a plain cache hit; an in-flight one makes
		// this submission a coalesced follower of the running simulation.
		select {
		case <-e.done:
			p.lru.MoveToFront(e.elem)
		default:
			res.Coalesced = true
			e.followers++
		}
		p.mu.Unlock()
		select {
		case <-e.done:
			res.Outcome, res.Err, res.Wall, res.Cached = e.outcome, e.err, e.wall, true
			res.MetricsJSON = e.metrics
			p.mu.Lock()
			res.Followers = e.followers
			p.mu.Unlock()
		case <-ctx.Done():
			res.Err = ctx.Err()
		}
		return res
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	p.cache[key] = e
	p.mu.Unlock()

	// Disk read-through. The in-flight entry is already in the map, so
	// concurrent duplicates coalesce onto the disk read as they would
	// onto a simulation.
	if p.Store != nil {
		if payload, ok := p.Store.Get(p.storeKey(key)); ok {
			out, wall, mjson, derr := decodeStored(sp, payload)
			if derr == nil {
				p.mu.Lock()
				e.outcome, e.wall = out, wall
				e.diskHit, e.metrics = true, mjson
				e.bytes = int64(len(payload))
				res.Followers = e.followers
				p.completeLocked(e)
				p.mu.Unlock()
				close(e.done)
				res.Outcome, res.Wall = out, wall
				res.DiskHit, res.MetricsJSON = true, mjson
				return res
			}
			// Undecodable payload (schema drift, kind collision): note it
			// and re-simulate; the write-through refreshes the record.
			p.statsMu.Lock()
			p.stats.StoreErrors++
			p.statsMu.Unlock()
		}
	}

	simulated = true
	start := time.Now()
	out, err := p.simulate(ctx, sp)
	wall := time.Since(start)
	canceled := err != nil && (errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded))

	// Encode the envelope once: it is both the write-through payload and
	// the entry's byte footprint, and its bundle serves every response.
	// Encoding failures degrade to a served but unstored result.
	var envelope, bundle []byte
	if err == nil {
		var eerr error
		if envelope, bundle, eerr = encodeStored(out, wall); eerr != nil {
			p.statsMu.Lock()
			p.stats.StoreErrors++
			p.statsMu.Unlock()
		}
	}
	if p.Store != nil && envelope != nil && !canceled {
		if perr := p.Store.Put(p.storeKey(key), envelope); perr != nil {
			p.statsMu.Lock()
			p.stats.StoreErrors++
			p.statsMu.Unlock()
		}
	}

	p.mu.Lock()
	e.outcome, e.err, e.wall = out, err, wall
	e.metrics, e.bytes = bundle, int64(len(envelope))
	res.Followers = e.followers
	if canceled {
		// A canceled run is not a result: drop it so a later batch with a
		// live context simulates afresh.
		delete(p.cache, key)
	} else {
		p.completeLocked(e)
	}
	p.mu.Unlock()
	close(e.done)
	res.Outcome, res.Err, res.Wall = out, err, wall
	res.MetricsJSON = bundle
	return res
}

// runSim performs one simulation: cluster.Run, held in a variable so a
// test can make a run panic.
var runSim = cluster.Run

// simulate performs the Spec's run, converting a panicking simulation
// into a failed Result instead of a crashed process.
func (p *Pool) simulate(ctx context.Context, sp Spec) (out core.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: panic: %v\n%s", r, debug.Stack())
		}
	}()
	cfg := sp.Config()
	cfg.Cancel = ctx.Done()
	if p.MetricsIntervalMS > 0 {
		cfg.Metrics = metrics.New(p.MetricsIntervalMS)
	}
	return runSim(cfg, sp.Cluster, sp.Kind)
}

// Do runs fn(i) for every i in [0, n) on at most Jobs workers and returns
// the first error by index — the escape hatch for experiment steps that
// are not Spec-shaped (analytic walk-throughs, custom measurements) but
// should still share the pool's bounded parallelism. Panics in fn are
// captured like panicking simulations. Already-canceled contexts fail
// remaining iterations with ctx's error; fn itself is responsible for
// observing ctx mid-iteration.
func (p *Pool) Do(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	p.each(n, func(i int) { errs[i] = protect(ctx, i, fn) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// each calls work(i) for every i in [0, n) on min(Jobs, n) workers fed
// from one index channel, and returns once every call has returned.
func (p *Pool) each(n int, work func(i int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(p.jobs(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				work(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// protect invokes fn(i) with ctx and panic guards.
func protect(ctx context.Context, i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: panic: %v\n%s", r, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	return fn(i)
}
