package runner

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rofs/internal/alloc/extent"
	"rofs/internal/core"
	"rofs/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current key encoding")

// TestSpecKeyGolden pins the canonical key encoding. The pool's result
// cache, the service layer's request coalescing, and saved metrics
// bundles all assume that a given configuration keys identically across
// processes and releases — so any change to the encoding must be a
// conscious one (rerun with -update and review the diff).
func TestSpecKeyGolden(t *testing.T) {
	specs := []Spec{
		testSpec(t, 42),
		testSpec(t, 42),
		testSpec(t, 42),
		testSpec(t, 42),
	}
	specs[1].Policy = core.Buddy()
	specs[1].Kind = core.Application
	specs[2].Policy = core.Extent(extent.BestFit, []int64{4096, 65536, 1 << 20})
	specs[3].Policy = core.Fixed(4096)
	specs[3].Kind = core.Sequential
	specs[3].MaxSimMS = 30_000

	// The scenario layer's variants, each appending its own term (and only
	// when armed): the aging kind, an inline arrival trace, and the
	// log-structured compaction overlay.
	aging := testSpec(t, 42)
	aging.Kind = core.Aging
	traced := testSpec(t, 42)
	traced.Kind = core.Application
	traced.Workload.Arrivals = &workload.Arrivals{Trace: []workload.TraceOp{
		{AtMS: 0, Op: "read"},
		{AtMS: 500, Op: "write", Client: 3},
		{AtMS: 1000, Op: "dealloc"},
	}}
	compacted := testSpec(t, 42)
	compacted.Kind = core.Application
	compacted.Workload.Compact = &workload.Compaction{Policy: workload.CompactLeveled, Fanout: 8}
	specs = append(specs, aging, traced, compacted)

	var b strings.Builder
	for _, sp := range specs {
		b.WriteString(sp.Key())
		b.WriteString("\n")
	}
	got := b.String()

	path := filepath.Join("testdata", "spec_key.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Spec.Key encoding changed — cached results and coalescing keys no longer match older runs.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
