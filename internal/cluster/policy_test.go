package cluster

import (
	"math"
	"testing"

	"rofs/internal/core"
)

// Round-robin must distribute any arrival count evenly: fairness is the
// policy's entire contract.
func TestRoundRobinFairness(t *testing.T) {
	r := newRoundRobin(4)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[r.Route(0, core.Arrival{})]++
	}
	for i, c := range counts {
		if c != 1000 {
			t.Errorf("instance %d got %d arrivals, want 1000", i, c)
		}
	}
}

// Fresh least-loaded reads the live counts directly and breaks ties by
// lowest index.
func TestLeastLoadedFresh(t *testing.T) {
	live := []int{3, 1, 2}
	l := newLeastLoaded(live, true)
	if got := l.Route(0, core.Arrival{}); got != 1 {
		t.Fatalf("Route = %d, want 1 (fewest in flight)", got)
	}
	live[1] = 5
	if got := l.Route(0, core.Arrival{}); got != 2 {
		t.Fatalf("Route = %d, want 2 after load shift", got)
	}
	live[0], live[1], live[2] = 7, 7, 7
	if got := l.Route(0, core.Arrival{}); got != 0 {
		t.Fatalf("Route = %d, want 0 on ties (lowest index)", got)
	}
}

// A stale snapshot keeps routing to the member that *was* least loaded
// until refresh — the herding pathology the SnapshotMS knob exists to
// measure.
func TestLeastLoadedStaleSnapshot(t *testing.T) {
	live := []int{5, 0, 5}
	l := newLeastLoaded(live, false)
	for i := 0; i < 3; i++ {
		if got := l.Route(0, core.Arrival{}); got != 1 {
			t.Fatalf("pre-refresh Route = %d, want 1 (snapshot view)", got)
		}
		live[1] += 10 // the real queue fills, the snapshot doesn't see it
	}
	l.refresh()
	if got := l.Route(0, core.Arrival{}); got == 1 {
		t.Fatalf("post-refresh Route = 1, but instance 1 now carries %d in flight", live[1])
	}
}

// Affinity must be a pure function of the client key and spread distinct
// clients across the fleet.
func TestAffinityDeterministicSpread(t *testing.T) {
	a := newAffinity(4)
	counts := make([]int, 4)
	for c := 0; c < 256; c++ {
		i := a.Route(0, core.Arrival{Client: c})
		if again := a.Route(1e6, core.Arrival{Client: c}); again != i {
			t.Fatalf("client %d moved from instance %d to %d", c, i, again)
		}
		counts[i]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("instance %d received no clients — hash does not spread", i)
		}
	}
}

// Token bucket burst math: a full bucket admits exactly its capacity in a
// burst, then exactly the refill arithmetic afterwards.
func TestTokenBucketBurst(t *testing.T) {
	b := newTokenBucket(10, 100) // capacity 10, 100 tokens/s = 0.1/ms
	admitted := 0
	for i := 0; i < 15; i++ {
		if b.Admit(0) {
			admitted++
		}
	}
	if admitted != 10 {
		t.Fatalf("burst admitted %d, want exactly the capacity 10", admitted)
	}
	// 50 ms later: 5 tokens refilled, not one more.
	admitted = 0
	for i := 0; i < 10; i++ {
		if b.Admit(50) {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("after 50ms admitted %d, want 5 (0.1 tokens/ms refill)", admitted)
	}
	// A long idle period refills to capacity, never beyond.
	admitted = 0
	for i := 0; i < 20; i++ {
		if b.Admit(1e6) {
			admitted++
		}
	}
	if admitted != 10 {
		t.Fatalf("after long idle admitted %d, want the capacity 10", admitted)
	}
}

// Bounded queue: admit to capacity, reject beyond, admit again after
// release.
func TestBoundedQueueRejectBeyondCap(t *testing.T) {
	q := newBoundedQueue(3)
	for i := 0; i < 3; i++ {
		if !q.Admit(0) {
			t.Fatalf("admission %d rejected below capacity", i)
		}
	}
	if q.Admit(0) {
		t.Fatal("admitted beyond capacity")
	}
	q.Release(0)
	if !q.Admit(0) {
		t.Fatal("rejected after a release freed capacity")
	}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Instances: 1},
		{Instances: 4, Routing: RouteLeastLoaded, SnapshotMS: 500},
		{Instances: 2, Admission: AdmitTokenBucket, TokenCapacity: 5, TokenRefillPerSec: 10},
		{Instances: 2, Admission: AdmitQueue, QueueCap: 8, FaultInstance: 1},
		{Instances: 4, Parallelism: 8, SyncMS: 50},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("config %d: unexpected error %v", i, err)
		}
	}
	bad := []Config{
		{Instances: 2, Routing: "random"},
		{Instances: 2, Admission: "lottery"},
		{Instances: 2, Admission: AdmitTokenBucket},
		{Instances: 2, Admission: AdmitQueue},
		{Instances: 2, FaultInstance: 2},
		{Instances: 2, SnapshotMS: -1},
		{Instances: 2, Parallelism: -1},
		{Instances: 2, SyncMS: -1},
		// A float flag can spell NaN, which passes an x < 0 check; the
		// float knobs are checked on a disabled fleet too.
		{Instances: 2, SnapshotMS: math.NaN()},
		{Instances: 2, SyncMS: math.NaN()},
		{Instances: 2, Admission: AdmitTokenBucket, TokenCapacity: math.NaN(), TokenRefillPerSec: 10},
		{Instances: 2, Admission: AdmitTokenBucket, TokenCapacity: 5, TokenRefillPerSec: math.NaN()},
		{SnapshotMS: math.NaN()},
		{Admission: AdmitTokenBucket, TokenCapacity: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v): error expected, got nil", i, c)
		}
	}
}

func TestConfigKeyStability(t *testing.T) {
	if k := (Config{}).Key(); k != "" {
		t.Fatalf("disabled config must render an empty key, got %q", k)
	}
	a := Config{Instances: 4, Routing: RouteLeastLoaded, SnapshotMS: 250}
	if a.Key() != a.Key() {
		t.Fatal("Key not deterministic")
	}
	b := a
	b.SnapshotMS = 500
	if a.Key() == b.Key() {
		t.Fatal("distinct configs share a key")
	}
	// Parallelism is an execution knob producing byte-identical results,
	// so serial and parallel runs must share one cache entry.
	p := a
	p.Parallelism = 8
	if p.Key() != a.Key() {
		t.Fatalf("Parallelism leaked into the key: %q vs %q", p.Key(), a.Key())
	}
	// SyncMS pins the coupling observation grid (a model knob) — it must
	// key, but only when set, so pre-existing fleet keys are stable.
	s := a
	s.SyncMS = 50
	if s.Key() == a.Key() {
		t.Fatal("SyncMS must participate in the key when set")
	}
}
