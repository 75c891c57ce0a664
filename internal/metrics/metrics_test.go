package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := New(500)
	c := r.Counter("a.b")
	if c2 := r.Counter("a.b"); c2 != c {
		t.Fatal("second Counter call returned a different handle")
	}
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	g := r.Gauge("g")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %g, want 3", g.Value())
	}
	h := r.Histogram("h", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	if h.Total() != 2 || h.Sum() != 5.5 {
		t.Fatalf("hist total=%d sum=%g", h.Total(), h.Sum())
	}
	if h2 := r.Histogram("h", []float64{99}); h2 != h {
		t.Fatal("second Histogram call returned a different handle")
	}
	tl := r.Timeline("t")
	tl.Append(1000, 7)
	if tl.Last() != 7 || len(tl.Points()) != 1 {
		t.Fatalf("timeline = %+v", tl.Points())
	}
	if r.IntervalMS() != 500 {
		t.Fatalf("interval = %g", r.IntervalMS())
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	// Every operation on a nil registry or nil handle must be a no-op.
	r.SetLabel("k", "v")
	r.Sample(0)
	r.Finish(0)
	r.RegisterSampler(func(float64) { t.Fatal("sampler ran on nil registry") })
	c := r.Counter("c")
	c.Inc()
	c.Add(10)
	if c != nil || c.Value() != 0 {
		t.Fatal("nil registry counter not dropping")
	}
	g := r.Gauge("g")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge not dropping")
	}
	h := r.Histogram("h", []float64{1})
	h.Observe(5)
	if h.Total() != 0 || h.Sum() != 0 || h.Counts() != nil || h.Quantile(0.5) != 0 {
		t.Fatal("nil hist not dropping")
	}
	tl := r.TimelineFunc("t", func() float64 { return 1 })
	tl.Append(0, 1)
	if tl.Points() != nil || tl.Last() != 0 {
		t.Fatal("nil timeline not dropping")
	}
	if r.Labels() != nil || r.Samples() != 0 || r.IntervalMS() != 0 {
		t.Fatal("nil registry accessors not zero")
	}
	// Export from nil must still produce a valid empty document.
	var sb strings.Builder
	if err := r.Write(&sb, JSON); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("nil registry JSON invalid: %v", err)
	}
	if doc["schema"] != SchemaV1 {
		t.Fatalf("schema = %v", doc["schema"])
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a counter name as a gauge did not panic")
		}
	}()
	r := New(0)
	r.Counter("x")
	r.Gauge("x")
}

func TestSamplingAndTimelineFunc(t *testing.T) {
	for _, iv := range []float64{-5, math.NaN()} {
		if got := New(iv).IntervalMS(); got != DefaultIntervalMS {
			t.Fatalf("New(%g) interval = %g, want the default", iv, got)
		}
	}
	r := New(0)
	if r.IntervalMS() != DefaultIntervalMS {
		t.Fatalf("default interval = %g", r.IntervalMS())
	}
	v := 0.0
	tl := r.TimelineFunc("series", func() float64 { return v })
	v = 1
	r.Sample(1000)
	v = 2
	r.Sample(2000)
	pts := tl.Points()
	if len(pts) != 2 || pts[0] != (Point{1000, 1}) || pts[1] != (Point{2000, 2}) {
		t.Fatalf("points = %+v", pts)
	}
	if r.Samples() != 2 {
		t.Fatalf("samples = %d", r.Samples())
	}
}

// TestFinishTakesLastSampleAndStops: Finish samples once more, exactly
// as Sample does; afterwards no Sample or Finish runs a sampler, appends
// a point or counts a sample.
func TestFinishTakesLastSampleAndStops(t *testing.T) {
	r := New(0)
	calls := 0
	tl := r.TimelineFunc("series", func() float64 { calls++; return float64(calls) })
	r.Sample(1000)
	r.Finish(1500)
	want := []Point{{1000, 1}, {1500, 2}}
	if pts := tl.Points(); len(pts) != 2 || pts[0] != want[0] || pts[1] != want[1] {
		t.Fatalf("points = %+v, want %+v", pts, want)
	}
	r.Sample(2000)
	r.Finish(2500)
	if calls != 2 || len(tl.Points()) != 2 || r.Samples() != 2 {
		t.Fatalf("after Finish: %d sampler calls, %d points, %d samples; want 2, 2, 2",
			calls, len(tl.Points()), r.Samples())
	}
}

func TestSetLabelReplaces(t *testing.T) {
	r := New(0)
	r.SetLabel("policy", "buddy")
	r.SetLabel("policy", "rbuddy")
	r.SetLabel("seed", "1")
	ls := r.Labels()
	if len(ls) != 2 || ls[0] != (Label{"policy", "rbuddy"}) {
		t.Fatalf("labels = %+v", ls)
	}
}

// fillRegistry populates one of every metric kind for the export tests.
func fillRegistry() *Registry {
	r := New(1000)
	r.SetLabel("policy", "rbuddy")
	r.SetLabel("seed", "42")
	r.Counter("disk.requests").Add(7)
	r.Gauge("sim.end_ms").Set(1234.5)
	h := r.Histogram("lat_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	tl := r.Timeline("util")
	tl.Append(1000, 50)
	tl.Append(2000, 75)
	r.Sample(1000)
	r.Sample(2000)
	return r
}

func TestExportJSON(t *testing.T) {
	r := fillRegistry()
	var sb strings.Builder
	if err := r.Write(&sb, JSON); err != nil {
		t.Fatal(err)
	}
	var doc struct {
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
		Timelines map[string][]Point `json:"timelines"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != SchemaV1 || doc.IntervalMS != 1000 || doc.Samples != 2 {
		t.Fatalf("header = %+v", doc)
	}
	if doc.Labels["policy"] != "rbuddy" || doc.Counters["disk.requests"] != 7 {
		t.Fatalf("labels/counters = %+v %+v", doc.Labels, doc.Counters)
	}
	if doc.Gauges["sim.end_ms"] != 1234.5 {
		t.Fatalf("gauges = %+v", doc.Gauges)
	}
	h := doc.Histograms["lat_ms"]
	if h.Total != 3 || h.Sum != 105.5 || len(h.Counts) != 3 || h.Counts[2] != 1 {
		t.Fatalf("hist = %+v", h)
	}
	if tl := doc.Timelines["util"]; len(tl) != 2 || tl[1] != (Point{2000, 75}) {
		t.Fatalf("timeline = %+v", doc.Timelines)
	}
	// Deterministic: a second render is byte-identical.
	var sb2 strings.Builder
	r.Write(&sb2, JSON)
	if sb.String() != sb2.String() {
		t.Fatal("JSON export not deterministic")
	}
}

func TestExportCSV(t *testing.T) {
	r := fillRegistry()
	var sb strings.Builder
	if err := r.Write(&sb, CSV); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "kind,name,time_ms,key,value" {
		t.Fatalf("header = %q", lines[0])
	}
	for _, want := range []string{
		"label,policy,,,rbuddy",
		"counter,disk.requests,,,7",
		"gauge,sim.end_ms,,,1234.5",
		"hist,lat_ms,,+Inf,1",
		"hist,lat_ms,,sum,105.5",
		"hist,lat_ms,,count,3",
		"timeline,util,2000,,75",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("CSV missing row %q:\n%s", want, out)
		}
	}
}

func TestExportPrometheus(t *testing.T) {
	r := fillRegistry()
	var sb strings.Builder
	if err := r.Write(&sb, Prometheus); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE rofs_disk_requests counter",
		`rofs_disk_requests{policy="rbuddy",seed="42"} 7`,
		`rofs_sim_end_ms{policy="rbuddy",seed="42"} 1234.5`,
		"# TYPE rofs_lat_ms histogram",
		`rofs_lat_ms_bucket{policy="rbuddy",seed="42",le="1"} 1`,
		`rofs_lat_ms_bucket{policy="rbuddy",seed="42",le="10"} 2`,
		`rofs_lat_ms_bucket{policy="rbuddy",seed="42",le="+Inf"} 3`,
		`rofs_lat_ms_sum{policy="rbuddy",seed="42"} 105.5`,
		`rofs_lat_ms_count{policy="rbuddy",seed="42"} 3`,
		// Timeline exports its last sample as a gauge.
		`rofs_util{policy="rbuddy",seed="42"} 75`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("Prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestFormatsAgree checks the three exporters describe the same registry:
// the counter value, histogram count, and timeline's final sample must be
// readable from each encoding.
func TestFormatsAgree(t *testing.T) {
	r := fillRegistry()
	var j, c, p strings.Builder
	if err := r.Write(&j, JSON); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(&c, CSV); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(&p, Prometheus); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(j.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["disk.requests"] != 7 {
		t.Fatalf("JSON counter = %d", doc.Counters["disk.requests"])
	}
	if !strings.Contains(c.String(), "counter,disk.requests,,,7\n") {
		t.Fatal("CSV disagrees on disk.requests")
	}
	if !strings.Contains(p.String(), "rofs_disk_requests{policy=\"rbuddy\",seed=\"42\"} 7\n") {
		t.Fatal("Prometheus disagrees on disk.requests")
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{
		"": JSON, "json": JSON, "csv": CSV, "prom": Prometheus,
		"Prometheus": Prometheus, " CSV ": CSV,
	} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat(xml) did not fail")
	}
	if JSON.Ext() != ".json" || CSV.Ext() != ".csv" || Prometheus.Ext() != ".prom" {
		t.Error("Ext mismatch")
	}
}
