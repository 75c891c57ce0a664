package core

import (
	"strings"
	"testing"

	"rofs/internal/metrics"
)

// metricsConfig is the short TS/rbuddy run used across the metrics tests.
func metricsConfig(seed int64) Config {
	return Config{
		Disk:     smallDisk(),
		Policy:   RBuddy(3, 1, true),
		Workload: scaledTS(),
		Seed:     seed,
		MaxSimMS: 30_000,
	}
}

func TestMetricsBundleFromRun(t *testing.T) {
	cfg := metricsConfig(4)
	reg := metrics.New(1000)
	cfg.Metrics = reg
	out, err := Run(cfg, Application)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics != reg {
		t.Fatal("Outcome.Metrics is not the configured registry")
	}

	// Identity labels.
	labels := map[string]string{}
	for _, l := range reg.Labels() {
		labels[l.Key] = l.Value
	}
	if labels["policy"] != "rbuddy-3-g1-clus" || labels["test"] != "app" || labels["seed"] != "4" {
		t.Fatalf("labels = %v", labels)
	}

	// Request-latency histogram is populated and consistent with the
	// request counter.
	lat := reg.Histogram("disk.request_latency_ms", nil)
	reqs := reg.Counter("disk.requests").Value()
	if reqs == 0 || lat.Total() != reqs {
		t.Fatalf("requests=%d latency observations=%d", reqs, lat.Total())
	}
	if reg.Histogram("disk.queue_wait_ms", nil).Total() == 0 {
		t.Fatal("queue-wait histogram empty")
	}
	if reg.Histogram("core.latency_ms", nil).Total() == 0 {
		t.Fatal("core latency histogram empty")
	}

	// Per-drive utilization timelines: one per drive, sampled over the
	// 30-second run, values in [0, 100].
	for i := 0; i < cfg.Disk.NDisks; i++ {
		name := "disk.drive." + string(rune('0'+i)) + ".util_pct"
		pts := reg.Timeline(name).Points()
		if len(pts) < 2 {
			t.Fatalf("%s has %d points, want a sampled series", name, len(pts))
		}
		for _, p := range pts {
			if p.V < 0 || p.V > 100 {
				t.Fatalf("%s sample out of range: %+v", name, p)
			}
		}
	}

	// Fragmentation timelines exist and end at plausible values.
	util := reg.Timeline("frag.utilization").Points()
	if len(util) < 2 {
		t.Fatalf("frag.utilization has %d points", len(util))
	}
	if last := util[len(util)-1].V; last <= 0 || last > 1 {
		t.Fatalf("final utilization = %g", last)
	}

	// Finalize gauges: drive service-time decomposition sums to busy time.
	busy := reg.Gauge("disk.drive.0.busy_ms").Value()
	parts := reg.Gauge("disk.drive.0.seek_ms").Value() +
		reg.Gauge("disk.drive.0.rot_ms").Value() +
		reg.Gauge("disk.drive.0.xfer_ms").Value()
	if busy <= 0 {
		t.Fatal("drive 0 never busy")
	}
	if diff := busy - parts; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("busy=%g but seek+rot+xfer=%g", busy, parts)
	}

	// Allocator operation counts flow through the StatsReporter hook.
	if reg.Counter("alloc.allocs").Value() == 0 {
		t.Fatal("no allocator ops recorded")
	}
	if reg.Counter("fs.creates").Value() == 0 || reg.Counter("core.ops.read").Value() == 0 {
		t.Fatal("fs/core counters empty")
	}
}

func TestMetricsRunsAreDeterministic(t *testing.T) {
	render := func() string {
		cfg := metricsConfig(4)
		cfg.Metrics = metrics.New(1000)
		if _, err := Run(cfg, Application); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := cfg.Metrics.Write(&sb, metrics.JSON); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if render() != render() {
		t.Fatal("identical metrics-on runs produced different bundles")
	}
}

func TestMetricsOffIsNil(t *testing.T) {
	out, err := Run(metricsConfig(4), Application)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics != nil {
		t.Fatal("metrics-off run produced a registry")
	}
}
