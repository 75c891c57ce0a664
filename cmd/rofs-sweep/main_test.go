package main

import (
	"strings"
	"testing"

	"rofs/internal/cluster"
	"rofs/internal/fault"
	"rofs/internal/service"
	"rofs/internal/workload"
)

// sweepBase is the base request rofs-sweep builds from its flags: the
// fixed restricted buddy policy on workload wl and test, bench scale.
func sweepBase(wl, test string) service.RunRequest {
	return service.RunRequest{Policy: "rbuddy", Workload: wl, Test: test, Scale: "bench", Layout: "striped"}
}

// raid5 is a base on the 4-drive RAID-5 array that drive failures need.
func raid5(req service.RunRequest) service.RunRequest {
	req.Layout, req.Disks = "raid5", 4
	return req
}

// withScenario attaches a fault scenario, fleet and arrival process to a
// base request, as the scenario flags do.
func withScenario(req service.RunRequest, faults fault.Scenario, cc cluster.Config, arr *workload.Arrivals) service.RunRequest {
	if faults != (fault.Scenario{}) {
		req.Faults = &faults
	}
	if cc != (cluster.Config{}) {
		req.Cluster = &cc
	}
	req.Arrivals = arr
	return req
}

func TestParseValuesAcceptsFractionsAndNames(t *testing.T) {
	vals, err := parseValues("1, 1.5 ,2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "1.5", "2"}
	if len(vals) != len(want) {
		t.Fatalf("got %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("value %d = %q, want %q", i, vals[i], want[i])
		}
	}
	// Tokens stay strings, so name-valued axes parse too.
	names, err := parseValues("rr,least,affinity")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[1] != "least" {
		t.Errorf("name-valued tokens mangled: %v", names)
	}
	if _, err := parseValues(" ,, "); err == nil {
		t.Error("empty list accepted")
	}
}

func TestBuildSpecsGrowFraction(t *testing.T) {
	specs, err := buildSpecs(sweepBase("TS", "alloc"), "grow", []string{"1", "1.5", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs", len(specs))
	}
	if got := specs[1].Policy.Name(); !strings.Contains(got, "g1.5") {
		t.Errorf("fractional grow factor lost: policy %q", got)
	}
	if specs[0].Key() == specs[1].Key() {
		t.Error("different grow factors share a key")
	}
}

func TestBuildSpecsRejectsFractionalIntParams(t *testing.T) {
	for _, param := range []string{"seed", "users", "stripe", "disks", "sizes", "instances"} {
		if _, err := buildSpecs(sweepBase("TP", "app"), param, []string{"1.5"}); err == nil {
			t.Errorf("parameter %q accepted a fractional value", param)
		}
	}
	// Integer-valued tokens convert cleanly.
	specs, err := buildSpecs(sweepBase("TP", "app"), "seed", []string{"7"})
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Seed != 7 {
		t.Errorf("seed = %d, want 7", specs[0].Seed)
	}
	// Numeric parameters reject garbage tokens.
	if _, err := buildSpecs(sweepBase("TP", "app"), "seed", []string{"x"}); err == nil {
		t.Error("garbage token accepted for a numeric parameter")
	}
}

func TestBuildSpecsRebuildPauseSweep(t *testing.T) {
	// rebuild-pause without a rebuild scenario is an error.
	if _, err := buildSpecs(sweepBase("TS", "app"), "rebuild-pause", []string{"0", "50"}); err == nil {
		t.Error("rebuild-pause sweep accepted without a fault scenario")
	}
	faults := fault.Scenario{FailAtMS: 1000, Rebuild: true}
	specs, err := buildSpecs(withScenario(raid5(sweepBase("TS", "app")), faults, cluster.Config{}, nil),
		"rebuild-pause", []string{"0", "50"})
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Faults.RebuildPauseMS != 0 || specs[1].Faults.RebuildPauseMS != 50 {
		t.Errorf("pause not applied: %g, %g", specs[0].Faults.RebuildPauseMS, specs[1].Faults.RebuildPauseMS)
	}
	if specs[0].Key() == specs[1].Key() {
		t.Error("different rebuild pauses share a key")
	}
	// Negative pauses fail fault validation, per point.
	if _, err := buildSpecs(withScenario(raid5(sweepBase("TS", "app")), faults, cluster.Config{}, nil),
		"rebuild-pause", []string{"-5"}); err == nil {
		t.Error("negative rebuild pause accepted")
	}
}

func TestBuildSpecsAttachScenario(t *testing.T) {
	faults := fault.Scenario{FailAtMS: 2000, TransientProb: 0.01}
	specs, err := buildSpecs(withScenario(raid5(sweepBase("TP", "app")), faults, cluster.Config{}, nil),
		"seed", []string{"1", "2"})
	if err != nil {
		t.Fatal(err)
	}
	// A drive failure off RAID-5 is rejected up front, not at run time.
	if _, err := buildSpecs(withScenario(sweepBase("TP", "app"), faults, cluster.Config{}, nil),
		"seed", []string{"1"}); err == nil || !strings.Contains(err.Error(), "raid5") {
		t.Errorf("drive failure on a striped array: err = %v", err)
	}
	for i, sp := range specs {
		if sp.Faults != faults {
			t.Errorf("spec %d lost the fault scenario: %+v", i, sp.Faults)
		}
	}
}

func TestBuildSpecsVariesOnlyTheParameter(t *testing.T) {
	specs, err := buildSpecs(sweepBase("TP", "app"), "users", []string{"8", "16"})
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Workload.Types[0].Users != 8 || specs[1].Workload.Types[0].Users != 16 {
		t.Errorf("users not applied: %d, %d",
			specs[0].Workload.Types[0].Users, specs[1].Workload.Types[0].Users)
	}
	if specs[0].Seed != specs[1].Seed {
		t.Error("seed drifted across points")
	}
}

func TestBuildSpecsInstancesSweep(t *testing.T) {
	arr := &workload.Arrivals{RatePerSec: 400}
	specs, err := buildSpecs(withScenario(sweepBase("TP", "app"), fault.Scenario{}, cluster.Config{}, arr), "instances", []string{"1", "2", "4"})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 4} {
		if specs[i].Cluster.Instances != want {
			t.Errorf("point %d: instances = %d, want %d", i, specs[i].Cluster.Instances, want)
		}
		if specs[i].Workload.Arrivals == nil || specs[i].Workload.Arrivals.RatePerSec != 400 {
			t.Errorf("point %d lost the arrival process: %+v", i, specs[i].Workload.Arrivals)
		}
	}
	if specs[0].Key() == specs[2].Key() {
		t.Error("different fleet sizes share a key")
	}
	// The cluster axes are app-test only.
	if _, err := buildSpecs(sweepBase("TP", "seq"), "instances", []string{"2"}); err == nil {
		t.Error("instances sweep accepted outside the app test")
	}
}

func TestBuildSpecsRoutingAndAdmissionSweeps(t *testing.T) {
	base := cluster.Config{Instances: 4, TokenCapacity: 32, TokenRefillPerSec: 300, QueueCap: 64}
	arr := &workload.Arrivals{RatePerSec: 400}
	specs, err := buildSpecs(withScenario(sweepBase("TP", "app"), fault.Scenario{}, base, arr), "routing", []string{"rr", "least", "affinity"})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"rr", "least", "affinity"} {
		if specs[i].Cluster.Routing != want {
			t.Errorf("point %d: routing = %q, want %q", i, specs[i].Cluster.Routing, want)
		}
	}
	// Routing needs a fleet to route across.
	if _, err := buildSpecs(withScenario(sweepBase("TP", "app"), fault.Scenario{}, cluster.Config{}, arr), "routing", []string{"rr"}); err == nil {
		t.Error("routing sweep accepted without -instances")
	}
	// Unknown policy names fail per point via cluster validation.
	if _, err := buildSpecs(withScenario(sweepBase("TP", "app"), fault.Scenario{}, base, arr), "routing", []string{"random"}); err == nil {
		t.Error("unknown routing policy accepted")
	}

	specs, err = buildSpecs(withScenario(sweepBase("TP", "app"), fault.Scenario{}, base, arr), "admission", []string{"none", "token", "queue"})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"", "token", "queue"} {
		if specs[i].Cluster.Admission != want {
			t.Errorf("point %d: admission = %q, want %q", i, specs[i].Cluster.Admission, want)
		}
	}
}

func TestBuildSpecsRateSweep(t *testing.T) {
	base := cluster.Config{Instances: 2}
	arr := &workload.Arrivals{RatePerSec: 100, Clients: 64}
	specs, err := buildSpecs(withScenario(sweepBase("TP", "app"), fault.Scenario{}, base, arr), "rate", []string{"200", "400"})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{200, 400} {
		a := specs[i].Workload.Arrivals
		if a == nil || a.RatePerSec != want {
			t.Errorf("point %d: arrivals = %+v, want rate %g", i, a, want)
		}
		if a != nil && a.Clients != 64 {
			t.Errorf("point %d dropped the client population: %+v", i, a)
		}
	}
	if specs[0].Key() == specs[1].Key() {
		t.Error("different arrival rates share a key")
	}
}

func TestBuildSpecsParseThroughSpec(t *testing.T) {
	// Seed 0 is a seed, not a request for the default 42.
	specs, err := buildSpecs(sweepBase("TS", "alloc"), "seed", []string{"0", "42"})
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Seed != 0 || specs[1].Seed != 42 {
		t.Errorf("seeds = %d, %d; want 0, 42", specs[0].Seed, specs[1].Seed)
	}
	// Points the parser rejects fail with its message, naming the point,
	// instead of panicking or failing at run time.
	for _, c := range []struct{ param, tok, want string }{
		{"sizes", "7", "sizes=7: rbuddy wants 2-5 block sizes, got 7"},
		{"grow", "0.5", "grow=0.5: rbuddy grow factor must be >= 1, got 0.5"},
		{"disks", "-2", "disks=-2: disks must be non-negative, got -2"},
		{"stripe", "-8192", "stripe=-8192: stripe_bytes must be non-negative, got -8192"},
		{"rate", "0", "rate=0: "},
		{"users", "0", `users=0: workload "tp-relation": Users 0 must be positive`},
	} {
		_, err := buildSpecs(sweepBase("TP", "app"), c.param, []string{c.tok})
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s=%s: err = %v, want prefix %q", c.param, c.tok, err, c.want)
		}
	}
	// The CSV has no columns for the aging test.
	if _, err := buildSpecs(sweepBase("TS", "aging"), "seed", []string{"1"}); err == nil {
		t.Error("aging sweep accepted")
	}
}
