package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rofs/internal/cluster"
	"rofs/internal/core"
	"rofs/internal/disk"
	"rofs/internal/workload"
)

// testSpec returns a small, fast allocation run; vary seed to get
// distinct keys.
func testSpec(t testing.TB, seed int64) Spec {
	t.Helper()
	dcfg := disk.DefaultConfig()
	dcfg.NDisks = 2
	dcfg.Geometry.Cylinders = 120
	wl, err := workload.ByName("TS")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Disk:     dcfg,
		Policy:   core.RBuddy(5, 1, true),
		Workload: wl.Scale(64, 1),
		Kind:     core.Allocation,
		Seed:     seed,
		MaxSimMS: 60_000,
	}
}

func TestSpecKeyIdentity(t *testing.T) {
	a, b := testSpec(t, 1), testSpec(t, 1)
	if a.Key() != b.Key() {
		t.Error("equal specs have different keys")
	}
	b.Name = "renamed"
	if a.Key() != b.Key() {
		t.Error("Name leaked into the key; it is presentation-only")
	}
	for name, mutate := range map[string]func(*Spec){
		"seed":    func(s *Spec) { s.Seed = 2 },
		"kind":    func(s *Spec) { s.Kind = core.Application },
		"policy":  func(s *Spec) { s.Policy = core.RBuddy(5, 1.5, true) },
		"max":     func(s *Spec) { s.MaxSimMS = 30_000 },
		"stable":  func(s *Spec) { s.StableWindows = 8 },
		"prefail": func(s *Spec) { s.Faults.PreFail = true },
		"disk":    func(s *Spec) { s.Disk.NDisks = 3 },
	} {
		c := testSpec(t, 1)
		mutate(&c)
		if c.Key() == a.Key() {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
}

func TestPoolCachesEqualSpecs(t *testing.T) {
	p := New(4)
	sp := testSpec(t, 1)
	// The same configuration three times in one batch: one simulation,
	// identical outcomes.
	res, err := p.Run(context.Background(), []Spec{sp, sp, sp})
	if err != nil {
		t.Fatal(err)
	}
	simulated, cached := 0, 0
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("run %d: %v", i, r.Err)
		}
		if r.Cached {
			cached++
		} else {
			simulated++
		}
		if got, want := fmt.Sprintf("%#v", r.Outcome), fmt.Sprintf("%#v", res[0].Outcome); got != want {
			t.Errorf("run %d outcome diverged from its duplicate", i)
		}
	}
	if simulated != 1 || cached != 2 {
		t.Errorf("simulated %d, cached %d; want 1 and 2", simulated, cached)
	}
	// A later batch through the same pool is served entirely from cache.
	res2, err := p.Run(context.Background(), []Spec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if !res2[0].Cached {
		t.Error("second batch re-simulated a cached configuration")
	}
	if got, want := fmt.Sprintf("%#v", res2[0].Outcome), fmt.Sprintf("%#v", res[0].Outcome); got != want {
		t.Error("cached outcome differs from the original")
	}
}

func TestPoolResultsInSubmissionOrder(t *testing.T) {
	specs := []Spec{testSpec(t, 3), testSpec(t, 1), testSpec(t, 2)}
	res, err := New(3).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if res[i].Spec.Seed != specs[i].Seed {
			t.Errorf("result %d carries seed %d, want %d", i, res[i].Spec.Seed, specs[i].Seed)
		}
	}
}

func TestPoolPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(2).Run(ctx, []Spec{testSpec(t, 1), testSpec(t, 2)})
	if err == nil {
		t.Fatal("canceled context produced no error")
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("run %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestPoolCancelMidFlightEvictsCache(t *testing.T) {
	p := New(1)
	// A throughput run with early stabilization off runs to its whole
	// 2,000 s horizon, ~50x longer than the timeout on a 2-vCPU host,
	// so the cancel always lands mid-flight.
	sp := testSpec(t, 7)
	sp.Kind = core.Application
	sp.StableWindows = 1 << 30
	sp.MaxSimMS = 2_000_000
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	res, _ := p.Run(ctx, []Spec{sp})
	if res[0].Err == nil {
		t.Fatal("simulation finished inside the timeout; nothing to evict")
	}
	if !errors.Is(res[0].Err, core.ErrCanceled) && !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a cancellation", res[0].Err)
	}
	// The canceled run must not poison the cache: a batch with a live
	// context simulates afresh and succeeds.
	res2, err := p.Run(context.Background(), []Spec{sp})
	if err != nil {
		t.Fatalf("rerun after cancellation: %v", err)
	}
	if res2[0].Cached {
		t.Error("canceled result was served from the cache")
	}
}

func TestPoolCapturesPanics(t *testing.T) {
	// A simulation that panics — here the application run, made to panic
	// the way the engine does on a modelling bug — must become a failed
	// Result, not a crashed process, and the healthy spec in the same
	// batch must still complete.
	defer func(run func(core.Config, cluster.Config, core.TestKind) (core.Outcome, error)) { runSim = run }(runSim)
	runSim = func(cfg core.Config, cc cluster.Config, kind core.TestKind) (core.Outcome, error) {
		if kind == core.Application {
			panic("sim: event scheduled at NaN")
		}
		return cluster.Run(cfg, cc, kind)
	}
	bad := testSpec(t, 1)
	bad.Kind = core.Application
	good := testSpec(t, 1)
	res, err := New(2).Run(context.Background(), []Spec{good, bad})
	if err == nil {
		t.Fatal("panicking simulation reported no error")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("error does not mention the panic: %v", err)
	}
	if res[0].Err != nil {
		t.Errorf("healthy spec failed alongside the panicking one: %v", res[0].Err)
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "panic") {
		t.Errorf("panicking spec's result: %v", res[1].Err)
	}
}

func TestDoCapturesPanicsAndOrdersErrors(t *testing.T) {
	p := New(4)
	err := p.Do(context.Background(), 8, func(i int) error {
		switch i {
		case 3:
			return fmt.Errorf("boom-%d", i)
		case 5:
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom-3") {
		t.Errorf("Do returned %v, want the first error by index", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Do(ctx, 2, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("Do on canceled ctx = %v", err)
	}
}
