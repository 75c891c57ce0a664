package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// bundle mirrors the rofs-metrics/v1 JSON layout (internal/metrics
// export.go) the way a consumer decodes it.
type bundle struct {
	Schema     string             `json:"schema"`
	Labels     map[string]string  `json:"labels"`
	IntervalMS float64            `json:"interval_ms"`
	Samples    int64              `json:"samples"`
	Counters   map[string]int64   `json:"counters"`
	Gauges     map[string]float64 `json:"gauges"`
	Histograms map[string]struct {
		Bounds []float64 `json:"bounds"`
		Counts []int64   `json:"counts"`
		Total  int64     `json:"total"`
		Sum    float64   `json:"sum"`
	} `json:"histograms"`
	Timelines map[string][]struct {
		T float64 `json:"t"`
		V float64 `json:"v"`
	} `json:"timelines"`
}

// checkBundle decodes out as exactly one JSON bundle with no unknown
// field, and checks the schema tag, that every section is present, and
// that every counter, histogram and timeline is consistent.
func checkBundle(t *testing.T, out []byte) bundle {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	var b bundle
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("stdout is not a bundle: %v\n%s", err, out)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Errorf("stdout goes on after the bundle")
	}
	if b.Schema != "rofs-metrics/v1" {
		t.Errorf("schema = %q, want rofs-metrics/v1", b.Schema)
	}
	// The encoder always emits every section, even when empty.
	if b.Labels == nil || b.Counters == nil || b.Gauges == nil || b.Histograms == nil || b.Timelines == nil {
		t.Errorf("missing top-level section")
	}
	if b.IntervalMS < 0 || b.Samples < 0 {
		t.Errorf("interval %g, samples %d: want non-negative", b.IntervalMS, b.Samples)
	}
	for name, v := range b.Counters {
		if v < 0 {
			t.Errorf("counter %s is negative (%d)", name, v)
		}
	}
	for name, h := range b.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			t.Errorf("histogram %s has %d counts for %d bounds", name, len(h.Counts), len(h.Bounds))
		}
		for i := 1; i < len(h.Bounds); i++ {
			if h.Bounds[i] <= h.Bounds[i-1] {
				t.Errorf("histogram %s bounds not increasing", name)
			}
		}
		var sum int64
		for _, c := range h.Counts {
			if c < 0 {
				t.Errorf("histogram %s has a negative count", name)
			}
			sum += c
		}
		if sum != h.Total {
			t.Errorf("histogram %s counts sum to %d, total says %d", name, sum, h.Total)
		}
	}
	for name, pts := range b.Timelines {
		for i := 1; i < len(pts); i++ {
			if pts[i].T < pts[i-1].T {
				t.Errorf("timeline %s goes backwards at point %d", name, i)
			}
		}
	}
	return b
}

// hasLine reports whether out has a line that starts with prefix.
func hasLine(out []byte, prefix string) bool {
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), prefix) {
			return true
		}
	}
	return false
}

// TestMetricsToStdout runs rofsim with -metrics - in each bundle format:
// stdout must carry the bundle alone, and the report moves to stderr.
func TestMetricsToStdout(t *testing.T) {
	const ts = "-workload TS -test app -max-sim 30000 -metrics - -metrics-format "
	cases := []struct {
		name, args string
		check      func(t *testing.T, out []byte)
	}{
		{"json", ts + "json", func(t *testing.T, out []byte) { checkBundle(t, out) }},
		{"csv", ts + "csv", func(t *testing.T, out []byte) {
			if !bytes.HasPrefix(out, []byte("kind,name,time_ms,key,value\n")) {
				t.Errorf("bad CSV header:\n%.200s", out)
			}
			if !hasLine(out, "counter,disk.requests,") {
				t.Error("CSV has no disk.requests counter")
			}
		}},
		{"prom", ts + "prom", func(t *testing.T, out []byte) {
			if !hasLine(out, "# TYPE rofs_disk_requests counter") {
				t.Error("Prometheus output has no rofs_disk_requests counter")
			}
			if !hasLine(out, "rofs_disk_request_latency_ms_count") {
				t.Error("Prometheus output has no latency histogram count")
			}
		}},
		// An armed compaction overlay's merges run through the drive
		// queues, so their I/O reaches the bundle.
		{"compact", "-workload TP -test app -compact tiered -max-sim 60000 -metrics -", func(t *testing.T, out []byte) {
			if b := checkBundle(t, out); b.Counters["compact.merge_write_bytes"] <= 0 {
				t.Errorf("compact.merge_write_bytes = %d, want > 0", b.Counters["compact.merge_write_bytes"])
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(c.args), &stdout, &stderr); code != 0 {
				t.Fatalf("rofsim %s exited %d: %s", c.args, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "\n  throughput:") {
				t.Errorf("report is not on stderr:\n%s", stderr.String())
			}
			c.check(t, stdout.Bytes())
		})
	}
}
