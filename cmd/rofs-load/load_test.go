package main

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestPaceKeepsAbsoluteSchedule drives pace with an arrive hook that
// takes 2 ms, 40% of the mean 5 ms gap. Due times come from one start, so
// every arrival the seed draws inside the window is sent, none before its
// due time, and the run ends close to the window's end. Timers chained
// from each wake-up would instead add the hook's time to every later
// arrival and overrun the 1 s window by about 0.4 s.
func TestPaceKeepsAbsoluteSchedule(t *testing.T) {
	const (
		rps    = 200
		window = time.Second
		hook   = 2 * time.Millisecond
	)
	var want int
	rng := rand.New(rand.NewSource(7))
	for sec := rng.ExpFloat64() / rps; sec <= window.Seconds(); sec += rng.ExpFloat64() / rps {
		want++
	}

	start := time.Now()
	var got int
	pace(context.Background(), rand.New(rand.NewSource(7)), rps, start, start.Add(window),
		func(idx int, due time.Time) {
			if idx != got {
				t.Fatalf("arrival %d came as index %d", got, idx)
			}
			if now := time.Now(); now.Before(due) {
				t.Fatalf("arrival %d sent %v before its due time", idx, due.Sub(now))
			}
			got++
			time.Sleep(hook)
		})
	elapsed := time.Since(start)

	if got != want {
		t.Fatalf("pace sent %d arrivals, the seed draws %d inside the window", got, want)
	}
	if limit := window + 200*time.Millisecond; elapsed > limit {
		t.Fatalf("pace took %v for a %v window (limit %v): arrivals drifted behind their schedule",
			elapsed, window, limit)
	}
}

// TestPaceStopsOnCancel checks that a canceled context ends the schedule
// without sending the pending arrival.
func TestPaceStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	pace(ctx, rand.New(rand.NewSource(1)), 1, start, start.Add(time.Hour), func(int, time.Time) {
		t.Fatal("arrival sent after cancel")
	})
}

// TestTailPercentileNeedsTenBeyond pins the reporting rule: a percentile
// is reported only when at least ten samples lie beyond it, so p95 needs
// 200 samples, p99 1,000 and p999 10,000.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		q       float64
		present int // the fewest samples that report q
	}{{0.95, 200}, {0.99, 1000}, {0.999, 10000}} {
		for _, n := range []int{1, c.present - 1, c.present, 2 * c.present} {
			sorted := make([]float64, n)
			for i := range sorted {
				sorted[i] = float64(i + 1)
			}
			got := tailPercentile(sorted, c.q)
			if (got != nil) != (n >= c.present) {
				t.Fatalf("q=%g n=%d: present=%v, want %v", c.q, n, got != nil, n >= c.present)
			}
			if got != nil && *got != percentile(sorted, c.q) {
				t.Fatalf("q=%g n=%d: %g, want the nearest-rank %g", c.q, n, *got, percentile(sorted, c.q))
			}
		}
	}
	// The table prints an absent percentile as "-".
	row := statRow("total", &classStats{Count: 3, Done: 3,
		Latency: &latSummary{Count: 3, P50MS: 12, MeanMS: 12, MaxMS: 20}})
	if row[9] != "12.0" || row[10] != "-" || row[11] != "-" || row[12] != "-" {
		t.Fatalf("statRow percentiles = %v, want 12.0 - - -", row[9:13])
	}
}
