package main

import (
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
