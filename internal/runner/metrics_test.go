package runner

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rofs/internal/metrics"
)

func TestSanitizeLabel(t *testing.T) {
	for in, want := range map[string]string{
		"rbuddy-5-g1-clus/TS/alloc": "rbuddy-5-g1-clus-TS-alloc",
		"seed=3 rbuddy/TS/app":      "seed-3-rbuddy-TS-app",
		"///":                       "run",
		"":                          "run",
		"plain_name.v1":             "plain_name.v1",
	} {
		if got := SanitizeLabel(in); got != want {
			t.Errorf("SanitizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSaveMetricsNilRegistryWritesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never-created")
	path, err := SaveMetrics(dir, metrics.JSON, "label", nil)
	if err != nil || path != "" {
		t.Fatalf("SaveMetrics(nil) = %q, %v", path, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("nil registry still created the directory")
	}
}

func TestPoolMetricsEndToEnd(t *testing.T) {
	p := New(2)
	p.MetricsIntervalMS = 1000
	specs := []Spec{testSpec(t, 1), testSpec(t, 2), testSpec(t, 1)}
	results, err := p.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, r := range results {
		reg := r.Outcome.Metrics
		if reg == nil {
			t.Fatalf("result %d has no metrics registry", i)
		}
		if reg.Counter("alloc.allocs").Value() == 0 {
			t.Fatalf("result %d registry is empty", i)
		}
		path, err := SaveMetrics(dir, metrics.JSON, r.Spec.Label(), reg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), metrics.SchemaV1) {
			t.Fatalf("%s missing schema tag", path)
		}
	}
	// The cached third result carries the registry of the run that
	// populated it.
	if !results[2].Cached || results[2].Outcome.Metrics != results[0].Outcome.Metrics {
		t.Fatal("cached result did not reuse the original run's registry")
	}
	// The bundle is rendered once, when the run finishes: MetricsJSON is
	// the registry's rendering, and the cached result shares its bytes.
	var buf bytes.Buffer
	if err := results[0].Outcome.Metrics.Write(&buf, metrics.JSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(results[0].MetricsJSON, buf.Bytes()) {
		t.Fatal("MetricsJSON is not the registry's bundle")
	}
	if &results[2].MetricsJSON[0] != &results[0].MetricsJSON[0] {
		t.Fatal("the cached result carries its own copy of the bundle")
	}
}
