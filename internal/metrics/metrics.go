// Package metrics is the simulator's per-run observability substrate: a
// registry of named counters, gauges, histograms, and simulated-time
// timelines, populated by instrumentation hooks in the engine, disk
// system, file system, allocators, and workload harness, and exported as
// JSON, CSV, or Prometheus text exposition (export.go).
//
// The bundle is a run's summary. Its record is core's event trace
// (Config.TraceWriter), and core's TestTraceAgreesWithBundle checks that
// the two agree: per-drive busy, seek, rotation and transfer time, bytes,
// segments, queue waits and operations.
//
// Two properties shape the design:
//
//   - Disabled must be free. Every handle type (*Counter, *Gauge, *Hist,
//     *Timeline) treats a nil receiver as a dropped metric, so
//     instrumented call sites need no guards and compile to a nil check
//     on the hot path. A nil *Registry likewise returns nil handles. With
//     metrics off the simulator's steady state performs no metric work
//     and allocates nothing (scripts/check_allocs.sh).
//
//   - Enabled must be bounded. With metrics on, per-event cost is integer
//     and float adds into preallocated handles; the only allocations are
//     amortized timeline-slice growth at the sampling interval (seconds
//     of simulated time apart) — bounded by run length, never per event.
//
// Timelines are driven by *simulated* time: the owner of the registry
// schedules a fixed-interval engine event that calls Sample, which runs
// every registered sampler, and ends the run with Finish. Wall time never
// appears in a bundle.
package metrics

import (
	"sort"

	"rofs/internal/stats"
)

// DefaultIntervalMS is the timeline sampling interval used when the
// caller does not choose one: one second of simulated time, matching the
// harness's throughput-tracker tick.
const DefaultIntervalMS = 1000

// Registry holds one run's metrics. Create with New; a nil *Registry is
// valid and drops everything.
type Registry struct {
	intervalMS float64
	labels     []Label

	counters  []*Counter
	gauges    []*Gauge
	hists     []*Hist
	timelines []*Timeline
	byName    map[string]any

	samplers []func(nowMS float64)
	samples  int64
	finished bool
}

// Label is one element of the run's identity (policy, workload, ...),
// attached to every exported metric.
type Label struct {
	Key, Value string
}

// New returns an empty registry sampling timelines every intervalMS of
// simulated time (DefaultIntervalMS when <= 0 or NaN).
func New(intervalMS float64) *Registry {
	if !(intervalMS > 0) {
		intervalMS = DefaultIntervalMS
	}
	return &Registry{intervalMS: intervalMS, byName: make(map[string]any)}
}

// IntervalMS returns the timeline sampling interval; 0 on a nil registry.
func (r *Registry) IntervalMS() float64 {
	if r == nil {
		return 0
	}
	return r.intervalMS
}

// SetLabel records one key of the run's identity, replacing an earlier
// value for the same key.
func (r *Registry) SetLabel(key, value string) {
	if r == nil {
		return
	}
	for i := range r.labels {
		if r.labels[i].Key == key {
			r.labels[i].Value = value
			return
		}
	}
	r.labels = append(r.labels, Label{key, value})
}

// Labels returns the run identity in insertion order.
func (r *Registry) Labels() []Label {
	if r == nil {
		return nil
	}
	return r.labels
}

// Counter returns the named counter, creating it on first use. Asking a
// nil registry returns a nil (dropping) handle. Registering a name twice
// with different metric kinds panics — it is always a wiring bug.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if h, ok := r.byName[name]; ok {
		return mustKind[*Counter](name, h)
	}
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	r.byName[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if h, ok := r.byName[name]; ok {
		return mustKind[*Gauge](name, h)
	}
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	r.byName[name] = g
	return g
}

// Histogram returns the named histogram with the given bucket bounds,
// creating it on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Hist {
	if r == nil {
		return nil
	}
	if h, ok := r.byName[name]; ok {
		return mustKind[*Hist](name, h)
	}
	h := &Hist{name: name, bounds: bounds, h: stats.NewHistogram(bounds)}
	r.hists = append(r.hists, h)
	r.byName[name] = h
	return h
}

// Timeline returns the named timeline, creating it on first use. Points
// are appended either manually or by a sampler (TimelineFunc).
func (r *Registry) Timeline(name string) *Timeline {
	if r == nil {
		return nil
	}
	if h, ok := r.byName[name]; ok {
		return mustKind[*Timeline](name, h)
	}
	t := &Timeline{name: name}
	r.timelines = append(r.timelines, t)
	r.byName[name] = t
	return t
}

// TimelineFunc creates the named timeline and registers a sampler that
// appends fn() at every Sample call — the standard shape for quantities
// read off live simulator state (queue depths, fragmentation, heap
// depth).
func (r *Registry) TimelineFunc(name string, fn func() float64) *Timeline {
	if r == nil {
		return nil
	}
	t := r.Timeline(name)
	r.RegisterSampler(func(nowMS float64) { t.Append(nowMS, fn()) })
	return t
}

// RegisterSampler adds fn to the set run by Sample, in registration
// order.
func (r *Registry) RegisterSampler(fn func(nowMS float64)) {
	if r == nil {
		return
	}
	r.samplers = append(r.samplers, fn)
}

// Sample runs every registered sampler at simulated time nowMS. The
// registry's owner drives it from a fixed-interval engine event. After
// Finish it does nothing.
func (r *Registry) Sample(nowMS float64) {
	if r == nil || r.finished {
		return
	}
	r.samples++
	for _, fn := range r.samplers {
		fn(nowMS)
	}
}

// Finish ends the run's sampling: it takes the last sample at nowMS,
// exactly as Sample does, and then drops the samplers. Samplers read live
// simulator state, so a registry that kept them would keep the whole
// simulator reachable for as long as anything holds the run's result; a
// finished registry holds only data.
func (r *Registry) Finish(nowMS float64) {
	if r == nil {
		return
	}
	r.Sample(nowMS)
	r.samplers = nil
	r.finished = true
}

// Samples returns how many Sample calls have run.
func (r *Registry) Samples() int64 {
	if r == nil {
		return 0
	}
	return r.samples
}

// mustKind asserts a registered handle's kind, panicking with the name
// on mismatch.
func mustKind[T any](name string, h any) T {
	t, ok := h.(T)
	if !ok {
		panic("metrics: " + name + " already registered as a different kind")
	}
	return t
}

// sortedCounters returns the counters by name, for deterministic export.
func (r *Registry) sortedCounters() []*Counter {
	out := append([]*Counter(nil), r.counters...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *Registry) sortedGauges() []*Gauge {
	out := append([]*Gauge(nil), r.gauges...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *Registry) sortedHists() []*Hist {
	out := append([]*Hist(nil), r.hists...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *Registry) sortedTimelines() []*Timeline {
	out := append([]*Timeline(nil), r.timelines...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Counter is a monotonically increasing integer. A nil *Counter drops
// every update.
type Counter struct {
	name string
	v    int64
}

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil handle.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is a float64 that can be set or accumulated. A nil *Gauge drops
// every update.
type Gauge struct {
	name string
	v    float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add accumulates delta — used for cumulative simulated-time totals
// (busy, seek, rotation, transfer milliseconds).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.v += delta
}

// Value returns the gauge; 0 on a nil handle.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Hist is a fixed-bucket histogram with a running sum, exportable as a
// Prometheus histogram. A nil *Hist drops every observation.
type Hist struct {
	name   string
	bounds []float64
	h      *stats.Histogram
	sum    float64
}

// Observe records one observation.
func (h *Hist) Observe(x float64) {
	if h == nil {
		return
	}
	h.h.Add(x)
	if x == x { // skip NaN in the sum, like the histogram's NaN bucket
		h.sum += x
	}
}

// Total returns the number of observations; 0 on a nil handle.
func (h *Hist) Total() int64 {
	if h == nil {
		return 0
	}
	return h.h.Total()
}

// Sum returns the sum of finite observations.
func (h *Hist) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Bounds returns the bucket upper bounds.
func (h *Hist) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Counts returns the per-bucket counts (last entry: overflow).
func (h *Hist) Counts() []int64 {
	if h == nil {
		return nil
	}
	return h.h.Counts()
}

// Quantile returns an upper bound on the q-quantile.
func (h *Hist) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.h.Quantile(q)
}

// Name returns the histogram's registered name.
func (h *Hist) Name() string { return h.name }

// Point is one timeline sample: a value at a simulated time.
type Point struct {
	TMS float64 `json:"t"`
	V   float64 `json:"v"`
}

// Timeline is a series of (simulated time, value) samples. A nil
// *Timeline drops every append.
type Timeline struct {
	name   string
	points []Point
}

// Append records v at simulated time tMS.
func (t *Timeline) Append(tMS, v float64) {
	if t == nil {
		return
	}
	t.points = append(t.points, Point{tMS, v})
}

// Points returns the recorded series.
func (t *Timeline) Points() []Point {
	if t == nil {
		return nil
	}
	return t.points
}

// Last returns the most recent value, or 0 when empty.
func (t *Timeline) Last() float64 {
	if t == nil || len(t.points) == 0 {
		return 0
	}
	return t.points[len(t.points)-1].V
}

// Name returns the timeline's registered name.
func (t *Timeline) Name() string { return t.name }
