package fault

import (
	"flag"
	"math"
	"testing"
)

func TestScenarioEnabled(t *testing.T) {
	cases := []struct {
		sc   Scenario
		want bool
	}{
		{Scenario{}, false},
		{Scenario{FailAtMS: 1000}, true},
		{Scenario{MTTFMS: 50000}, true},
		{Scenario{TransientProb: 0.01}, true},
		{Scenario{MaxRetries: 3, RetryBackoffMS: 10}, false}, // retry knobs alone inject nothing
	}
	for _, c := range cases {
		if got := c.sc.Enabled(); got != c.want {
			t.Errorf("Enabled(%+v) = %t, want %t", c.sc, got, c.want)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	good := []Scenario{
		{},
		{FailAtMS: 1000, FailDrive: 2, Rebuild: true, SpareDelayMS: 50},
		{MTTFMS: 60000, TransientProb: 0.5, MaxRetries: 10},
	}
	for _, sc := range good {
		if err := sc.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", sc, err)
		}
	}
	bad := []Scenario{
		{FailAtMS: -1},
		{MTTFMS: -1},
		{FailDrive: -1},
		{TransientProb: 1.5},
		{TransientProb: -0.1},
		{FailAtMS: 1, SpareDelayMS: -1},
		{FailAtMS: 1, RebuildChunkBytes: -1},
		{FailAtMS: 1, RebuildPauseMS: -1},
		{FailAtMS: 1, MaxRetries: -1},
		{FailAtMS: 1, RetryBackoffMS: -1},
		{Rebuild: true, TransientProb: 0.1}, // rebuild without a drive failure
		// A float flag can spell NaN, which passes an x < 0 check.
		{FailAtMS: math.NaN()},
		{MTTFMS: math.NaN()},
		{TransientProb: math.NaN()},
		{FailAtMS: 1, SpareDelayMS: math.NaN()},
		{FailAtMS: 1, RebuildPauseMS: math.NaN()},
		{FailAtMS: 1, RetryBackoffMS: math.NaN()},
	}
	for _, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", sc)
		}
	}
}

func TestScenarioKey(t *testing.T) {
	if k := (Scenario{}).Key(); k != "" {
		t.Errorf("disabled scenario key %q, want empty", k)
	}
	a := Scenario{FailAtMS: 1000, Rebuild: true}
	b := a
	b.RebuildPauseMS = 50
	if a.Key() == b.Key() {
		t.Error("scenarios differing in pause share a key")
	}
	if a.Key() != a.Key() {
		t.Error("key not deterministic")
	}
}

func TestWithDefaults(t *testing.T) {
	sc := Scenario{TransientProb: 0.1}.withDefaults()
	if sc.MaxRetries != 4 || sc.RetryBackoffMS != 5 {
		t.Errorf("defaults not applied: retries=%d backoff=%g", sc.MaxRetries, sc.RetryBackoffMS)
	}
	sc = Scenario{TransientProb: 0.1, MaxRetries: 7, RetryBackoffMS: 2}.withDefaults()
	if sc.MaxRetries != 7 || sc.RetryBackoffMS != 2 {
		t.Errorf("explicit knobs overwritten: retries=%d backoff=%g", sc.MaxRetries, sc.RetryBackoffMS)
	}
	if got := (Scenario{}).withDefaults(); got != (Scenario{}) {
		t.Errorf("disabled scenario gained defaults: %+v", got)
	}
}

// TestFlagsRoundTrip parses a full flag line and expects the assembled
// scenario to carry every knob.
func TestFlagsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := AddFlags(fs)
	err := fs.Parse([]string{
		"-fail-at", "20000", "-fail-drive", "1", "-transient", "0.001",
		"-rebuild", "-spare-delay", "100", "-rebuild-chunk", "4194304",
		"-rebuild-pause", "10", "-fault-retries", "6", "-fault-backoff", "2.5",
		"-fault-seed", "99",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Scenario{
		FailAtMS: 20000, FailDrive: 1, TransientProb: 0.001,
		Rebuild: true, SpareDelayMS: 100, RebuildChunkBytes: 4194304,
		RebuildPauseMS: 10, MaxRetries: 6, RetryBackoffMS: 2.5, Seed: 99,
	}
	if got := f.Scenario(); got != want {
		t.Errorf("flags round trip:\n got %+v\nwant %+v", got, want)
	}
	if err := f.Scenario().Validate(); err != nil {
		t.Errorf("parsed scenario invalid: %v", err)
	}
}
