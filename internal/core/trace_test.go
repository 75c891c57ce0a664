package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rofs/internal/metrics"
)

func TestLatencyReported(t *testing.T) {
	res, err := RunApplication(Config{
		Disk:     smallDisk(),
		Policy:   RBuddy(3, 1, true),
		Workload: scaledTS(),
		Seed:     4,
		MaxSimMS: 30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLatencyMS <= 0 {
		t.Fatalf("MeanLatencyMS = %g", res.MeanLatencyMS)
	}
	if res.P95LatencyMS < res.MeanLatencyMS {
		t.Fatalf("p95 %g below mean %g", res.P95LatencyMS, res.MeanLatencyMS)
	}
}

var updateTraceGolden = flag.Bool("update", false, "rewrite testdata/trace.golden from the current trace")

// traceGoldenHead is how many leading trace lines the golden keeps
// verbatim, so that a format change shows up as a readable diff.
const traceGoldenHead = 20

// TestTraceGolden pins the event trace of one small run byte for byte: its
// line count and SHA-256, and its first lines verbatim.
func TestTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	cfg := metricsConfig(4)
	cfg.TraceWriter = &buf
	if _, err := Run(cfg, Application); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	if len(lines) < traceGoldenHead {
		t.Fatalf("trace has only %d lines", len(lines))
	}
	var got strings.Builder
	fmt.Fprintf(&got, "lines %d\nsha256 %x\n", bytes.Count(buf.Bytes(), []byte("\n")), sha256.Sum256(buf.Bytes()))
	got.WriteString(strings.Join(lines[:traceGoldenHead], ""))

	path := filepath.Join("testdata", "trace.golden")
	if *updateTraceGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("trace diverged from golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// driveTotals sums one drive's seg records.
type driveTotals struct {
	segs                         int64
	read, written                int64
	svcMS, seekMS, rotMS, xferMS float64
}

// traceTotals is what TestTraceAgreesWithBundle adds up from a trace.
type traceTotals struct {
	drives  map[int]*driveTotals
	segs    int64
	waitMS  float64
	ops     map[string]int64
	opLatMS float64
}

// sumTrace parses every line of a trace, failing on one that does not
// match its kind's format or whose time goes backwards, and adds the
// records up.
func sumTrace(t *testing.T, trace *bytes.Buffer) traceTotals {
	t.Helper()
	tt := traceTotals{drives: map[int]*driveTotals{}, ops: map[string]int64{}}
	last := 0.0
	for _, line := range strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n") {
		f := strings.SplitN(line, "\t", 3)
		if len(f) != 3 {
			t.Fatalf("malformed trace line %q", line)
		}
		at, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			t.Fatalf("bad time in %q", line)
		}
		// op completions and seg starts interleave, but never go back
		// by more than the 3-decimal rounding.
		if at < last-1e-3 {
			t.Fatalf("trace time went back: %q after %g", line, last)
		}
		last = at
		switch f[1] {
		case "seg":
			var (
				d, off, n                  int64
				rw                         string
				svc, wait, seek, rot, xfer float64
			)
			if _, err := fmt.Sscanf(f[2], "disk=%d %s start=%d n=%d svc=%f wait=%f seek=%f rot=%f xfer=%f",
				&d, &rw, &off, &n, &svc, &wait, &seek, &rot, &xfer); err != nil {
				t.Fatalf("seg record %q: %v", line, err)
			}
			dt := tt.drives[int(d)]
			if dt == nil {
				dt = &driveTotals{}
				tt.drives[int(d)] = dt
			}
			dt.segs++
			switch rw {
			case "r":
				dt.read += n
			case "w":
				dt.written += n
			default:
				t.Fatalf("seg record %q: direction %q", line, rw)
			}
			dt.svcMS += svc
			dt.seekMS += seek
			dt.rotMS += rot
			dt.xferMS += xfer
			tt.segs++
			tt.waitMS += wait
		case "op":
			var (
				name, ft string
				length   int64
				lat      float64
			)
			if _, err := fmt.Sscanf(f[2], "%s type=%s len=%d lat=%f", &name, &ft, &length, &lat); err != nil {
				t.Fatalf("op record %q: %v", line, err)
			}
			tt.ops[name]++
			tt.opLatMS += lat
		default:
			t.Fatalf("unknown trace kind in %q", line)
		}
	}
	return tt
}

// TestTraceAgreesWithBundle checks the event trace, the one record of a
// run's simulated events, against the metrics bundle, its summary, on an
// application run, a sequential run, and a RAID-5 run with a mid-run
// drive failure, transient errors and a rebuild. Counts and bytes match
// exactly. Each trace value is rounded to 3 decimals, so a sum of n of
// them may miss the bundle's total by 0.0005 ms per record.
func TestTraceAgreesWithBundle(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		kind TestKind
		mix  []string // op kinds the trace must show
	}{
		{"app", metricsConfig(4), Application, []string{"read", "write", "dealloc"}},
		{"seq", metricsConfig(5), Sequential, nil},
		{"faults", faultTestConfig(), Application, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			reg := metrics.New(1000)
			cfg := c.cfg
			cfg.TraceWriter = &buf
			cfg.Metrics = reg
			if _, err := Run(cfg, c.kind); err != nil {
				t.Fatal(err)
			}
			tt := sumTrace(t, &buf)
			near := func(what string, got, want float64, records int64) {
				t.Helper()
				if tol := 0.0005 * float64(records); math.Abs(got-want) > tol {
					t.Errorf("%s: trace sums to %.4f, bundle says %.4f (tolerance %.4f over %d records)",
						what, got, want, tol, records)
				}
			}
			exact := func(what string, got, want int64) {
				t.Helper()
				if got != want {
					t.Errorf("%s: trace has %d, bundle says %d", what, got, want)
				}
			}

			if len(tt.drives) != cfg.Disk.NDisks {
				t.Fatalf("trace has seg records for %d drives, the array has %d", len(tt.drives), cfg.Disk.NDisks)
			}
			for d, dt := range tt.drives {
				g := func(name string) float64 { return reg.Gauge(fmt.Sprintf("disk.drive.%d.%s", d, name)).Value() }
				p := fmt.Sprintf("drive %d ", d)
				near(p+"svc", dt.svcMS, g("busy_ms"), dt.segs)
				near(p+"seek", dt.seekMS, g("seek_ms"), dt.segs)
				near(p+"rot", dt.rotMS, g("rot_ms"), dt.segs)
				near(p+"xfer", dt.xferMS, g("xfer_ms"), dt.segs)
				exact(p+"bytes read", dt.read, int64(g("bytes_read")))
				exact(p+"bytes written", dt.written, int64(g("bytes_written")))
			}
			wait := reg.Histogram("disk.queue_wait_ms", nil)
			exact("segments", tt.segs, reg.Counter("disk.segments").Value())
			exact("queue waits", tt.segs, wait.Total())
			near("queue wait", tt.waitMS, wait.Sum(), tt.segs)

			var ops int64
			for _, name := range opNames {
				exact("op "+name, tt.ops[name], reg.Counter("core.ops."+name).Value())
				ops += tt.ops[name]
			}
			if ops == 0 {
				t.Fatal("trace has no op records")
			}
			for _, name := range c.mix {
				if tt.ops[name] == 0 {
					t.Errorf("trace never saw a %s op (ops: %v)", name, tt.ops)
				}
			}
			lat := reg.Histogram("core.latency_ms", nil)
			exact("op latencies", ops, lat.Total())
			near("op latency", tt.opLatMS, lat.Sum(), ops)
		})
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestTraceWriteErrorFailsRun checks that a trace that cannot be written
// fails the run with the writer's error instead of losing it.
func TestTraceWriteErrorFailsRun(t *testing.T) {
	cfg := metricsConfig(4)
	cfg.TraceWriter = failingWriter{}
	_, err := Run(cfg, Application)
	if err == nil || !strings.Contains(err.Error(), "core: trace: disk full") {
		t.Fatalf("Run = %v, want a core: trace: error", err)
	}
}
