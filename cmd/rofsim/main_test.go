package main

import (
	"bytes"
	"strings"
	"testing"

	"rofs/internal/core"
)

func TestStability(t *testing.T) {
	if got := stability(core.PerfResult{Stable: true, Windows: 3}); got != "stabilized after 3 windows" {
		t.Errorf("stability = %q", got)
	}
	if got := stability(core.PerfResult{}); got != "time-capped; overall average" {
		t.Errorf("stability = %q", got)
	}
}

// TestNaNKnobFails: a float flag parses "NaN", which passes an x < 0
// check. Each knob's validator must reject it: exit status 1 with the
// validator's message, not a panic in the engine and not a run.
func TestNaNKnobFails(t *testing.T) {
	const base = "-policy buddy -workload TP -test app -max-sim 3000 "
	for _, c := range []struct{ args, msg string }{
		{"-layout raid5 -disks 4 -fail-at 1000 -rebuild -spare-delay NaN", "fault: SpareDelayMS NaN must be >= 0"},
		{"-layout raid5 -disks 4 -transient 0.01 -fault-backoff NaN", "fault: RetryBackoffMS NaN must be >= 0"},
		{"-mttf NaN", "fault: MTTFMS NaN must be >= 0"},
		{"-transient NaN", "fault: TransientProb NaN outside [0, 1]"},
		{"-snapshot-ms NaN", "cluster: SnapshotMS NaN must be >= 0"},
		{"-sync-ms NaN", "cluster: SyncMS NaN must be >= 0"},
		{"-admission token -token-capacity NaN", "cluster: TokenCapacity NaN and TokenRefillPerSec 0 must be >= 0"},
		{"-compact tiered -compact-flush-ms NaN", `workload "TP": compaction flush_every_ms NaN must be >= 0`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(base+c.args), &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("rofsim %s: exit %d, stderr %q; want exit 1 and %q", c.args, code, stderr.String(), c.msg)
		}
	}
}
