package workload

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestImportTraceSimple(t *testing.T) {
	in := `
# a comment
0 read ts-small 3

2.5 - - 7
2.5 write
10 dealloc ts-large
11
`
	a, err := ImportTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceOp{
		{AtMS: 0, Op: "read", Type: "ts-small", Client: 3},
		{AtMS: 2.5, Client: 7},
		{AtMS: 2.5, Op: "write"},
		{AtMS: 10, Op: "dealloc", Type: "ts-large"},
		{AtMS: 11},
	}
	if !reflect.DeepEqual(a.Trace, want) {
		t.Fatalf("got %+v, want %+v", a.Trace, want)
	}
	if a.EffectiveMode() != ArrivalsTrace {
		t.Fatalf("mode %q, want trace", a.EffectiveMode())
	}
}

func TestImportTraceBlkparse(t *testing.T) {
	in := `
  8,0    1        1     0.000000000  1234  Q   R 102400 + 8 [prog]
  8,0    1        2     0.000100000  1234  G   R 102400 + 8 [prog]
  8,0    1        3     0.001000000  5678  Q  WS 204800 + 16 [prog]
  8,0    0        4     0.002000000     9  Q FWS 0 [prog]
  8,0    0        5     0.003000000    11  Q   D 300000 + 8 [prog]
`
	a, err := ImportTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceOp{
		{AtMS: 0, Op: "read", Client: 1234},
		{AtMS: 1, Op: "write", Client: 5678},
		{AtMS: 2, Op: "write", Client: 9},
		{AtMS: 3, Op: "dealloc", Client: 11},
	}
	if !reflect.DeepEqual(a.Trace, want) {
		t.Fatalf("got %+v, want %+v", a.Trace, want)
	}
}

func TestImportTraceErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "no operations"},
		{"comments only", "# nothing\n\n", "no operations"},
		{"bad timestamp", "abc read\n", "line 1"},
		{"nan", "NaN read\n", "not finite"},
		{"negative time", "-1 read\n", "negative timestamp"},
		{"out of order", "5 read\n4 read\n", "line 2"},
		{"unknown op", "0 chmod\n", "unknown op"},
		{"bad client", "0 read ts-small -2\n", "bad client"},
		{"too many columns", "0 read ts-small 1 extra\n", "too many columns"},
		{"blkparse short", "8,0 1 1 0.1\n", "at least 9"},
		{"blkparse bad sector", "8,0 1 1 0.1 10 Q R deadbeef + 8 [p]\n", "bad blkparse sector"},
		{"blkparse huge sector", "8,0 1 1 0.1 10 Q R 99999999999999999999 + 8 [p]\n", "bad blkparse sector"},
		{"blkparse overflow sector", "8,0 1 1 0.1 10 Q R 9223372036854775807 + 8 [p]\n", "overflows"},
		{"blkparse overflow span", "8,0 1 1 0.1 10 Q R 18014398509481983 + 9007199254740992 [p]\n", "overflows"},
		{"blkparse bad rwbs", "8,0 1 1 0.1 10 Q X 0 + 8 [p]\n", "unknown blkparse rwbs"},
		{"blkparse out of order", "8,0 1 1 0.2 10 Q R 0 + 8 [p]\n8,0 1 2 0.1 10 Q R 0 + 8 [p]\n", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ImportTrace(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestImportTraceValidatesAgainstWorkload(t *testing.T) {
	a, err := ImportTrace(strings.NewReader("0 read ts-small\n1 write ts-large\n"))
	if err != nil {
		t.Fatal(err)
	}
	wl := TimeSharing()
	wl.Arrivals = a
	if err := wl.Validate(); err != nil {
		t.Fatalf("trace against TS types: %v", err)
	}
	bad, err := ImportTrace(strings.NewReader("0 read no-such-type\n"))
	if err != nil {
		t.Fatal(err)
	}
	wl.Arrivals = bad
	if err := wl.Validate(); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestLoadTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.trace")
	if err := os.WriteFile(path, []byte("0 read\n5 write\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := LoadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceFile != "" || len(a.Trace) != 2 || a.Mode != ArrivalsTrace {
		t.Fatalf("load returned %+v", a)
	}
	// A workload carrying the loaded block validates end to end.
	wl := TimeSharing()
	wl.Arrivals = a
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}

	// Unresolved references are rejected by Validate, not silently run.
	wl.Arrivals = &Arrivals{TraceFile: path}
	if err := wl.Validate(); err == nil || !strings.Contains(err.Error(), "trace_file") {
		t.Fatalf("unresolved trace_file validated: %v", err)
	}

	// Missing files fail loudly; a parse error names the file.
	if _, err := LoadTraceFile(filepath.Join(dir, "missing.trace")); err == nil {
		t.Fatal("missing trace file accepted")
	}
	bad := filepath.Join(dir, "backwards.trace")
	if err := os.WriteFile(bad, []byte("5 read\n1 write\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTraceFile(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("backwards trace: err = %v, want an error naming %s", err, bad)
	}
}

func TestExportTraceRejectsUnwritableFields(t *testing.T) {
	var buf bytes.Buffer
	for _, bad := range []*Arrivals{
		{Trace: []TraceOp{{Type: "two words"}}},
		{Trace: []TraceOp{{Type: "-"}}},
		{Trace: []TraceOp{{Op: "#x"}}},
	} {
		if err := ExportTrace(&buf, bad); err == nil {
			t.Fatalf("exported %+v", bad.Trace[0])
		}
	}
	if err := ExportTrace(&buf, nil); err == nil {
		t.Fatal("exported nil arrivals")
	}
}

// quickTrace wraps a generated trace for testing/quick.
type quickTrace struct{ ops []TraceOp }

// Generate implements quick.Generator: a random valid trace — sorted
// finite timestamps, ops and types from the accepted sets.
func (quickTrace) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(size+1)
	ops := make([]TraceOp, n)
	types := []string{"", "ts-small", "ts-large", "tp-relation", "x_1.z"}
	kinds := []string{"", "read", "write", "extend", "dealloc"}
	at := 0.0
	for i := range ops {
		switch r.Intn(4) {
		case 0:
			// long idle gaps, fractional ms
		case 1:
			at += math.Trunc(r.Float64() * 1e6)
		}
		at += r.Float64() * 10
		ops[i] = TraceOp{
			AtMS:   at,
			Op:     kinds[r.Intn(len(kinds))],
			Type:   types[r.Intn(len(types))],
			Client: r.Intn(1 << 20),
		}
	}
	return reflect.ValueOf(quickTrace{ops})
}

func TestTraceRoundTripProperty(t *testing.T) {
	prop := func(qt quickTrace) bool {
		in := &Arrivals{Mode: ArrivalsTrace, Trace: qt.ops}
		var buf bytes.Buffer
		if err := ExportTrace(&buf, in); err != nil {
			t.Logf("export: %v", err)
			return false
		}
		out, err := ImportTrace(&buf)
		if err != nil {
			t.Logf("re-import: %v", err)
			return false
		}
		return reflect.DeepEqual(out.Trace, in.Trace)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzImportTrace hardens the trace importer: arbitrary bytes must never
// panic, and any trace it accepts must survive an export → import round
// trip unchanged.
func FuzzImportTrace(f *testing.F) {
	f.Add("0 read ts-small 3\n2.5 - - 7\n10 dealloc\n")
	f.Add("8,0 1 1 0.000000000 1234 Q R 102400 + 8 [prog]\n")
	f.Add("8,0 1 1 0.001 9 Q FWS 0 [prog]\n")
	f.Add("# comment\n\n1e300 write\n")
	// Malformed columns.
	f.Add("0 read ts-small 1 extra\n")
	f.Add("8,0 1 1 0.1\n")
	f.Add("abc def\n")
	// Out-of-order timestamps.
	f.Add("5 read\n4 read\n")
	f.Add("8,0 1 1 0.2 10 Q R 0 + 8 [p]\n8,0 1 2 0.1 10 Q R 0 + 8 [p]\n")
	// Huge offsets.
	f.Add("8,0 1 1 0.1 10 Q R 9223372036854775807 + 8 [p]\n")
	f.Add("8,0 1 1 0.1 10 Q R 18014398509481983 + 9007199254740992 [p]\n")
	f.Add("1e309 read\nNaN write\n-0 read\n")
	f.Fuzz(func(t *testing.T, input string) {
		a, err := ImportTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		if len(a.Trace) == 0 {
			t.Fatal("accepted a trace with no operations")
		}
		var buf bytes.Buffer
		if err := ExportTrace(&buf, a); err != nil {
			// Accepted inputs always have grammar-safe fields: ops come
			// from a fixed keyword set and types are single columns.
			t.Fatalf("accepted trace failed to export: %v", err)
		}
		b, err := ImportTrace(&buf)
		if err != nil {
			t.Fatalf("exported trace rejected: %v", err)
		}
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Fatal("round trip changed the trace")
		}
	})
}
