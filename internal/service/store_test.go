package service

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"rofs/internal/store"
)

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestWarmRestartServesFromStore is the serving-layer acceptance
// property: a server restarted over the same store directory serves an
// identical submission from disk — disk-hit disposition, no simulation,
// byte-identical result payload and metrics bundle.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()

	st1 := openTestStore(t, dir)
	s1, c1 := newTestServer(t, Options{Jobs: 2, Store: st1})
	first, err := c1.SubmitWait(context.Background(), shortReq())
	if err != nil {
		t.Fatal(err)
	}
	if first.State != StateDone || first.Result == nil {
		t.Fatalf("first run: %+v", first)
	}
	if first.Result.Disposition != "simulated" {
		t.Fatalf("cold run disposition %q, want simulated", first.Result.Disposition)
	}
	s1.Close()
	st1.Close()

	// "Restart": a new server process over the same directory.
	log := &syncBuf{}
	st2 := openTestStore(t, dir)
	defer st2.Close()
	_, c2 := newTestServer(t, Options{Jobs: 2, Store: st2, AccessLog: log})
	second, err := c2.SubmitWait(context.Background(), shortReq())
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || second.Result == nil {
		t.Fatalf("second run: %+v", second)
	}
	if !second.Result.DiskHit || second.Result.Disposition != "disk-hit" {
		t.Fatalf("restarted server served disposition %q (disk_hit=%t), want disk-hit",
			second.Result.Disposition, second.Result.DiskHit)
	}
	if second.Result.Cached {
		t.Error("disk hit misreported as a memory hit")
	}

	// The deterministic payload is byte-identical across the restart.
	for name, pair := range map[string][2]any{
		"perf":  {first.Result.Perf, second.Result.Perf},
		"stats": {first.Result.Stats, second.Result.Stats},
	} {
		if got, want := mustJSON(t, pair[1]), mustJSON(t, pair[0]); got != want {
			t.Errorf("%s diverged across restart:\nfirst:  %s\nsecond: %s", name, want, got)
		}
	}
	if len(second.Result.Metrics) == 0 {
		t.Fatal("disk-served result carries no metrics bundle")
	}
	if !bytes.Equal(compactJSON(t, first.Result.Metrics), compactJSON(t, second.Result.Metrics)) {
		t.Error("metrics bundle diverged across restart")
	}

	// A repeat on the warm server is now a memory hit.
	third, err := c2.SubmitWait(context.Background(), shortReq())
	if err != nil {
		t.Fatal(err)
	}
	if third.Result == nil || third.Result.Disposition != "memory-hit" {
		t.Fatalf("repeat disposition: %+v", third.Result)
	}

	// The access log records the disk-hit disposition.
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(strings.Join(log.lines(), "\n"), `"disposition":"disk-hit"`) {
		if time.Now().After(deadline) {
			t.Fatalf("access log never recorded the disk hit:\n%s", strings.Join(log.lines(), "\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsExposeStoreActivity: /metrics reflects the disk tier.
func TestMetricsExposeStoreActivity(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	s, c := newTestServer(t, Options{Jobs: 1, Store: st})
	if _, err := c.SubmitWait(context.Background(), shortReq()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ss := st.Stats()
	s.obs.write(&buf, s.pool.Stats(), &ss)
	text := buf.String()
	for series, want := range map[string]string{
		"store_puts":         "1",
		"store_records":      "1",
		"pool_runs_disk_hit": "0",
		"pool_cache_entries": "1",
	} {
		if got := promValue(text, series); got != want {
			t.Errorf("%s = %q, want %q\n%s", series, got, want, grepLines(text, series))
		}
	}
	for _, series := range []string{"store_live_bytes", "pool_cache_bytes"} {
		if got := promValue(text, series); got == "" || got == "0" {
			t.Errorf("%s = %q, want nonzero", series, got)
		}
	}
}

// promValue extracts one series' value from a text exposition (ignoring
// the label set between name and value).
func promValue(text, series string) string {
	series = "rofs_" + series
	for _, ln := range strings.Split(text, "\n") {
		if !strings.HasPrefix(ln, series) {
			continue
		}
		rest := ln[len(series):]
		if !strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ") {
			continue // a longer name sharing the prefix
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			return rest[i+1:]
		}
	}
	return ""
}

// grepLines returns the lines of s containing sub, for focused failures.
func grepLines(s, sub string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, sub) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
