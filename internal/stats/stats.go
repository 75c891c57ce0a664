// Package stats provides the statistical estimators used by the simulator:
// streaming mean/variance (Welford), fixed-bucket histograms, and the
// windowed-throughput tracker that implements the paper's stabilization
// rule (three consecutive 10-second intervals within 0.1 percentage points
// of each other, §2.2/§3).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Welford accumulates a streaming mean and variance. The zero value is
// ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the estimator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Merge combines another estimator into this one (parallel Welford).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	mean := w.mean + delta*float64(o.n)/float64(n)
	m2 := w.m2 + o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.n, w.mean, w.m2 = n, mean, m2
}

// tTable95 holds two-sided 95% Student-t critical values for small
// degrees of freedom; beyond the table the normal approximation (1.96)
// takes over.
var tTable95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the two-sided 95% confidence interval on
// the mean (Student-t for small samples). It returns 0 for fewer than two
// observations.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	df := int(w.n - 1)
	t := 1.96
	if df < len(tTable95) {
		t = tTable95[df]
	}
	return t * w.StdDev() / math.Sqrt(float64(w.n))
}

// Histogram counts observations into caller-defined bucket boundaries.
// An observation x lands in bucket i when bounds[i-1] <= x < bounds[i];
// values >= the last bound (including +Inf) land in the overflow bucket,
// and values below the first bound (including -Inf) land in bucket 0.
// NaN observations belong to no interval: they are counted separately
// (NaNs) and appear in neither the buckets nor Total.
type Histogram struct {
	bounds []float64
	counts []int64
	total  int64
	nans   int64
}

// NewHistogram builds a histogram with the given strictly increasing upper
// bounds. At least one bound is required — with zero bounds every
// observation would land in the overflow bucket and every quantile would
// be +Inf, which is always a caller bug.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: histogram bounds not increasing at %d", i))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(bounds)+1)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		h.nans++
		return
	}
	i := sort.SearchFloat64s(h.bounds, x)
	// SearchFloat64s returns the first bound >= x; a value exactly on a
	// bound belongs to the next bucket (half-open intervals).
	if i < len(h.bounds) && h.bounds[i] == x {
		i++
	}
	h.counts[i]++
	h.total++
}

// Total returns the number of recorded non-NaN observations.
func (h *Histogram) Total() int64 { return h.total }

// NaNs returns the number of NaN observations dropped from the buckets.
func (h *Histogram) NaNs() int64 { return h.nans }

// Counts returns a copy of the per-bucket counts, the last entry being the
// overflow bucket.
func (h *Histogram) Counts() []int64 {
	c := make([]int64, len(h.counts))
	copy(c, h.counts)
	return c
}

// Merge folds another histogram's counts into this one. Both histograms
// must have been built with identical bucket bounds (fleet aggregation
// merges per-instance latency histograms that share latencyBounds).
func (h *Histogram) Merge(o *Histogram) {
	if len(h.bounds) != len(o.bounds) {
		panic("stats: merging histograms with different bucket counts")
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			panic("stats: merging histograms with different bounds")
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.nans += o.nans
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) by
// walking the buckets; it returns +Inf when the quantile falls in the
// overflow bucket and 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i >= len(h.bounds) {
				return math.Inf(1)
			}
			return h.bounds[i]
		}
	}
	return math.Inf(1)
}

// String renders a compact one-line summary, mainly for debug logs.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist(n=%d:", h.total)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if i < len(h.bounds) {
			fmt.Fprintf(&b, " <%g:%d", h.bounds[i], c)
		} else {
			fmt.Fprintf(&b, " >=%g:%d", h.bounds[len(h.bounds)-1], c)
		}
	}
	b.WriteString(")")
	return b.String()
}
