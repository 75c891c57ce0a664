package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the report golden from the current rofsim output")

// reportCases cover every report shape rofsim prints: one per test kind,
// a fleet, a compaction overlay, a RAID-5 fault run, explicit seeds
// (including 0), a stripe/block override, a JSON workload file, and a
// workload dump. All run at bench scale with a small simulated-time cap.
var reportCases = []struct{ name, args string }{
	{"alloc", "-policy rbuddy -workload TS -test alloc"},
	{"alloc-extent", "-policy extent -fit best -ranges 4 -workload TP -test alloc"},
	{"app", "-policy buddy -workload TS -test app -max-sim 15000"},
	{"seq", "-policy extent -fit best -workload SC -test seq -max-sim 15000"},
	{"aging", "-policy extent -workload TS -test aging -max-sim 30000"},
	{"fleet", "-policy buddy -workload TP -test app -instances 2 -rate 200 -max-sim 10000"},
	{"compact", "-policy rbuddy -sizes 4 -grow 2 -clustered=false -workload TP -test app -compact tiered -max-sim 15000"},
	{"raid5-faults", "-policy buddy -workload TS -test app -disks 4 -layout raid5 -fail-at 5000 -fail-drive 1 " +
		"-transient 0.001 -rebuild -rebuild-chunk 4194304 -max-sim 20000"},
	{"seed0", "-seed 0 -policy buddy -workload TS -test app -max-sim 5000"},
	{"fixed-stripe", "-policy fixed -block 16K -stripe 48K -seed 7 -workload TP -test app -max-sim 10000"},
	{"workload-file", "-workload-file testdata/small-ts.json -policy extent -ranges 2 -test app -max-sim 10000"},
	{"dump-workload", "-dump-workload SC"},
}

// TestReportGolden pins rofsim's stdout, byte for byte, for every case in
// reportCases. The golden was recorded before rofsim built its runs
// through service.RunRequest.Spec, so a pass proves that path reproduces
// the old report exactly.
func TestReportGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range reportCases {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: rofsim %s exited %d: %s", c.name, c.args, code, stderr.String())
		}
		fmt.Fprintf(&got, "### %s: rofsim %s\n%s", c.name, c.args, stdout.Bytes())
	}
	path := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("rofsim reports diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}
