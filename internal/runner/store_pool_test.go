package runner

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"rofs/internal/store"
)

// openStore opens a disk store under a test temp dir.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoSync: true, NoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestPoolDiskReadThrough is the tentpole property at the pool level: a
// second pool over the same store directory — a restarted process —
// serves a previously simulated Spec from disk, byte-identically.
func TestPoolDiskReadThrough(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec(t, 11)

	first := New(2)
	first.Store = openStore(t, dir)
	res1, err := first.Run(context.Background(), []Spec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if res1[0].Cached || res1[0].DiskHit {
		t.Fatalf("cold run reported cached=%t diskHit=%t", res1[0].Cached, res1[0].DiskHit)
	}
	first.Store.Close()

	// "Restart": a fresh pool (empty memory cache) over the same dir.
	second := New(2)
	second.Store = openStore(t, dir)
	res2, err := second.Run(context.Background(), []Spec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if !res2[0].DiskHit {
		t.Fatal("restarted pool re-simulated instead of reading the store")
	}
	if res2[0].Cached {
		t.Error("disk hit misreported as a memory hit")
	}
	if !reflect.DeepEqual(res1[0].Outcome.Frag, res2[0].Outcome.Frag) {
		t.Errorf("disk-served FragResult differs:\nlive: %+v\ndisk: %+v", res1[0].Outcome.Frag, res2[0].Outcome.Frag)
	}
	if res1[0].Outcome.Stats != res2[0].Outcome.Stats {
		t.Errorf("disk-served RunStats differ: %+v vs %+v", res1[0].Outcome.Stats, res2[0].Outcome.Stats)
	}
	if res1[0].Wall != res2[0].Wall {
		t.Errorf("disk hit lost the original wall time: %v vs %v", res1[0].Wall, res2[0].Wall)
	}
	// The disk hit now lives in the memory cache: a repeat is a plain hit.
	res3, err := second.Run(context.Background(), []Spec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if !res3[0].Cached || res3[0].DiskHit {
		t.Errorf("repeat after disk hit: cached=%t diskHit=%t, want memory hit", res3[0].Cached, res3[0].DiskHit)
	}
	st := second.Stats()
	if st.DiskHits != 1 || st.Simulated != 0 {
		t.Errorf("restarted pool stats: %d disk hits, %d simulated; want 1 and 0", st.DiskHits, st.Simulated)
	}
}

// TestPoolDiskHitCarriesMetrics: a stored run's rofs-metrics/v1 bundle
// comes back verbatim on Result.MetricsJSON, and the metrics interval
// partitions the store key (different interval: no hit).
func TestPoolDiskHitCarriesMetrics(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec(t, 12)

	first := New(1)
	first.MetricsIntervalMS = 1_000
	first.Store = openStore(t, dir)
	res1, err := first.Run(context.Background(), []Spec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if res1[0].Outcome.Metrics == nil {
		t.Fatal("instrumented run produced no registry")
	}
	first.Store.Close()

	second := New(1)
	second.MetricsIntervalMS = 1_000
	second.Store = openStore(t, dir)
	res2, err := second.Run(context.Background(), []Spec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if !res2[0].DiskHit {
		t.Fatal("same-interval pool missed the store")
	}
	if len(res2[0].MetricsJSON) == 0 {
		t.Fatal("disk hit carries no metrics bundle")
	}
	if !json.Valid(res2[0].MetricsJSON) {
		t.Error("stored metrics bundle is not valid JSON")
	}
	second.Store.Close()

	// A pool without the interval keys differently: it must simulate.
	third := New(1)
	third.Store = openStore(t, dir)
	res3, err := third.Run(context.Background(), []Spec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if res3[0].DiskHit {
		t.Error("different metrics interval shared a stored result")
	}
}

// TestPoolCacheEntriesBound: the in-memory cache drops least recently
// used completed entries beyond CacheEntries, the gauges track the
// footprint, and an evicted Spec falls back to the disk store.
func TestPoolCacheEntriesBound(t *testing.T) {
	p := New(1)
	p.CacheEntries = 2
	p.Store = openStore(t, t.TempDir())

	specs := []Spec{testSpec(t, 1), testSpec(t, 2), testSpec(t, 3), testSpec(t, 4)}
	if _, err := p.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.CacheEntries != 2 {
		t.Errorf("cache holds %d entries, want 2", st.CacheEntries)
	}
	if st.CacheEvictions != 2 {
		t.Errorf("%d evictions, want 2", st.CacheEvictions)
	}
	if st.CacheBytes <= 0 {
		t.Errorf("CacheBytes = %d, want > 0", st.CacheBytes)
	}

	// Seeds 1 and 2 were evicted from memory; the store still has them.
	res, err := p.Run(context.Background(), []Spec{specs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].DiskHit {
		t.Error("evicted spec did not read through to the store")
	}
	if res[0].Cached {
		t.Error("evicted spec reported a memory hit")
	}
	// Seed 4 is the most recently used: still a memory hit.
	res, err = p.Run(context.Background(), []Spec{specs[3]})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Cached || res[0].DiskHit {
		t.Errorf("MRU spec: cached=%t diskHit=%t, want memory hit", res[0].Cached, res[0].DiskHit)
	}
}

// TestPoolCacheUnbounded: zero CacheEntries keeps the pre-bound
// behavior — nothing evicts.
func TestPoolCacheUnbounded(t *testing.T) {
	p := New(1)
	specs := []Spec{testSpec(t, 1), testSpec(t, 2), testSpec(t, 3)}
	if _, err := p.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.CacheEvictions != 0 || st.CacheEntries != 3 {
		t.Errorf("unbounded cache: %d entries, %d evictions; want 3 and 0", st.CacheEntries, st.CacheEvictions)
	}
}
