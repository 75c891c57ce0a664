package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %g, want 5", got)
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if got := w.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %g, want %g", got, 32.0/7.0)
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Fatal("single observation stats wrong")
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var all, a, b Welford
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Fatalf("merged mean %g != %g", a.Mean(), all.Mean())
	}
	if math.Abs(a.Variance()-all.Variance()) > 1e-9 {
		t.Fatalf("merged variance %g != %g", a.Variance(), all.Variance())
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 {
		t.Fatal("merge with empty changed N")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 1 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestCI95(t *testing.T) {
	var w Welford
	if w.CI95() != 0 {
		t.Fatal("empty CI not 0")
	}
	w.Add(5)
	if w.CI95() != 0 {
		t.Fatal("single-sample CI not 0")
	}
	// Five observations with sd 1: CI = t(4) * 1/sqrt(5) = 2.776*0.4472.
	w = Welford{}
	for _, x := range []float64{4, 4.5, 5, 5.5, 6} {
		w.Add(x)
	}
	want := 2.776 * w.StdDev() / math.Sqrt(5)
	if got := w.CI95(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95 = %g, want %g", got, want)
	}
	// Large n uses the normal critical value.
	big := Welford{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		big.Add(rng.NormFloat64())
	}
	want = 1.96 * big.StdDev() / math.Sqrt(1000)
	if got := big.CI95(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("large-n CI95 = %g, want %g", got, want)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, x := range []float64{0.5, 0.9, 1, 5, 50, 1000} {
		h.Add(x)
	}
	want := []int64{2, 2, 1, 1} // [<1, 1..10, 10..100, >=100]
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, got[i], want[i], want)
		}
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
}

func TestHistogramBoundaryGoesUp(t *testing.T) {
	h := NewHistogram([]float64{10})
	h.Add(10)
	c := h.Counts()
	if c[0] != 0 || c[1] != 1 {
		t.Fatalf("value on boundary landed in %v, want overflow", c)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Add(float64(i%4) + 0.5) // 25 each in buckets <1, <2, <4, <4 ... values .5,1.5,2.5,3.5
	}
	if q := h.Quantile(0.2); q != 1 {
		t.Fatalf("Quantile(0.2) = %g, want 1", q)
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("Quantile(0.5) = %g, want 2", q)
	}
	if q := h.Quantile(1.0); q != 4 {
		t.Fatalf("Quantile(1.0) = %g, want 4", q)
	}
	empty := NewHistogram([]float64{1})
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestHistogramPanicsOnZeroBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bounds did not panic")
		}
	}()
	NewHistogram(nil)
}

func TestHistogramNaN(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Add(math.NaN())
	h.Add(5)
	h.Add(math.NaN())
	if h.NaNs() != 2 {
		t.Fatalf("NaNs = %d, want 2", h.NaNs())
	}
	if h.Total() != 1 {
		t.Fatalf("Total = %d, want 1 (NaNs excluded)", h.Total())
	}
	var sum int64
	for _, c := range h.Counts() {
		sum += c
	}
	if sum != 1 {
		t.Fatalf("bucket sum = %d, want 1", sum)
	}
	// NaNs do not disturb quantiles either.
	if q := h.Quantile(1.0); q != 10 {
		t.Fatalf("Quantile(1.0) = %g, want 10", q)
	}
}

func TestHistogramInfinities(t *testing.T) {
	h := NewHistogram([]float64{0, 100})
	h.Add(math.Inf(1))  // overflow bucket
	h.Add(math.Inf(-1)) // bucket 0
	c := h.Counts()
	if c[0] != 1 {
		t.Fatalf("-Inf landed in %v, want bucket 0", c)
	}
	if c[len(c)-1] != 1 {
		t.Fatalf("+Inf landed in %v, want overflow", c)
	}
	if h.Total() != 2 {
		t.Fatalf("Total = %d, want 2 (infinities count)", h.Total())
	}
	if q := h.Quantile(1.0); !math.IsInf(q, 1) {
		t.Fatalf("Quantile(1.0) = %g, want +Inf", q)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	h.Add(-1e300) // far below the first bound
	h.Add(1e300)  // far above the last
	c := h.Counts()
	if c[0] != 1 || c[2] != 1 || c[1] != 0 {
		t.Fatalf("out-of-range counts = %v, want [1 0 1]", c)
	}
	// The below-range observation still bounds the low quantile by the
	// first bucket's upper edge.
	if q := h.Quantile(0.5); q != 10 {
		t.Fatalf("Quantile(0.5) = %g, want 10", q)
	}
}

func TestThroughputStabilization(t *testing.T) {
	// 10-second windows, max bandwidth 1000 bytes/ms, 0.1 pct tolerance.
	tr := NewThroughputTracker(10_000, 1000, 0.1, 3)
	tr.Start(0)
	// Three identical windows at 50% utilization: 5e6 bytes per window.
	for w := 0; w < 3; w++ {
		for i := 0; i < 10; i++ {
			tr.Record(float64(w*10_000+i*1000)+1, 500_000)
		}
	}
	tr.Tick(30_000)
	if !tr.Stable() {
		t.Fatal("did not stabilize after three equal windows")
	}
	if p := tr.StablePercent(); math.Abs(p-50) > 1e-9 {
		t.Fatalf("StablePercent = %g, want 50", p)
	}
	if tr.Windows() != 3 {
		t.Fatalf("Windows = %d, want 3", tr.Windows())
	}
}

func TestThroughputNotStableWhenVarying(t *testing.T) {
	tr := NewThroughputTracker(10_000, 1000, 0.1, 3)
	tr.Start(0)
	// Windows at 50%, 52%, 50%: spread 2 points > 0.1 tolerance.
	bytes := []int64{5_000_000, 5_200_000, 5_000_000}
	for w, b := range bytes {
		tr.Record(float64(w)*10_000+5, b)
	}
	tr.Tick(30_000)
	if tr.Stable() {
		t.Fatal("stabilized despite 2-point spread")
	}
	if tr.Windows() != 3 {
		t.Fatalf("Windows = %d, want 3", tr.Windows())
	}
}

func TestThroughputIdleWindowsCountAsZero(t *testing.T) {
	tr := NewThroughputTracker(10_000, 1000, 0.1, 3)
	tr.Start(0)
	tr.Tick(35_000) // three idle windows elapse
	if !tr.Stable() {
		t.Fatal("three idle windows should stabilize at zero")
	}
	if tr.StablePercent() != 0 {
		t.Fatalf("StablePercent = %g, want 0", tr.StablePercent())
	}
}

func TestThroughputOverallPercent(t *testing.T) {
	tr := NewThroughputTracker(10_000, 1000, 0.1, 3)
	tr.Start(100)
	tr.Record(5_100, 2_500_000)
	if p := tr.OverallPercent(5_100); math.Abs(p-50) > 1e-9 {
		t.Fatalf("OverallPercent = %g, want 50", p)
	}
	if tr.TotalBytes() != 2_500_000 {
		t.Fatalf("TotalBytes = %d", tr.TotalBytes())
	}
}

func TestThroughputIgnoresBeforeStart(t *testing.T) {
	tr := NewThroughputTracker(10_000, 1000, 0.1, 3)
	tr.Record(5, 1_000_000) // before Start: ignored
	tr.Start(0)
	if tr.TotalBytes() != 0 {
		t.Fatal("bytes recorded before Start were counted")
	}
}

func TestThroughputRestart(t *testing.T) {
	tr := NewThroughputTracker(10_000, 1000, 0.1, 3)
	tr.Start(0)
	tr.Record(5, 1_000_000)
	tr.Tick(40_000)
	tr.Start(40_000) // restart clears state
	if tr.TotalBytes() != 0 || tr.Windows() != 0 || tr.Stable() {
		t.Fatal("Start did not reset tracker")
	}
}
