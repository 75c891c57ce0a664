package cluster

import (
	"testing"

	"rofs/internal/alloc/extent"
	"rofs/internal/core"
	"rofs/internal/disk"
	"rofs/internal/workload"
)

// fingerprintCfg is a small TP application run on a two-drive array —
// the bench-scale fleet configuration, built here without the
// experiments package (which imports this one).
func fingerprintCfg(t *testing.T) core.Config {
	t.Helper()
	wl, err := workload.ByName("TP")
	if err != nil {
		t.Fatal(err)
	}
	dc := disk.DefaultConfig()
	dc.NDisks = 2
	dc.Geometry.Cylinders = 200
	return core.Config{
		Disk:     dc,
		Policy:   core.Extent(extent.BestFit, []int64{16 * 1024, 512 * 1024, 16 * 1024 * 1024}),
		Workload: wl.Scale(1, 32),
		Seed:     42,
		MaxSimMS: 30_000,
	}
}

// runFingerprints runs one fleet and returns every instance's final
// fingerprint and the total events fired across its engines.
func runFingerprints(t *testing.T, cfg core.Config, cc Config) ([]core.Fingerprint, uint64) {
	t.Helper()
	d, err := newDeployment(cfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.run(); err != nil {
		t.Fatal(err)
	}
	fps := make([]core.Fingerprint, len(d.insts))
	for i, in := range d.insts {
		fps[i] = in.Fingerprint()
	}
	return fps, d.totalFired()
}

// TestFingerprintIndependentOfParallelism: a fleet's schedule is fixed
// by its configuration, so every instance must end in the same state —
// RNG stream position, counters, file-system occupancy — and the fleet
// must fire the same events whatever worker count advanced the engines.
// The closed-loop fleet runs on the independent tier, the open-loop
// token-bucket fleet on the windowed tier.
func TestFingerprintIndependentOfParallelism(t *testing.T) {
	closed := fingerprintCfg(t)
	open := fingerprintCfg(t)
	open.Workload.Arrivals = &workload.Arrivals{RatePerSec: 100}
	for _, tc := range []struct {
		name string
		cfg  core.Config
		cc   Config
	}{
		{"closed", closed, Config{Instances: 4}},
		{"open", open, Config{Instances: 4, Admission: AdmitTokenBucket, TokenCapacity: 50, TokenRefillPerSec: 200}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, baseFired := runFingerprints(t, tc.cfg, tc.cc)
			for _, fp := range base {
				if fp.Draws == 0 || fp.Ops == 0 {
					t.Fatalf("instance %d did no work: %+v", fp.Index, fp)
				}
			}
			for _, par := range []int{2, 4} {
				cc := tc.cc
				cc.Parallelism = par
				fps, fired := runFingerprints(t, tc.cfg, cc)
				if fired != baseFired {
					t.Errorf("par=%d fired %d events, serial fired %d", par, fired, baseFired)
				}
				for i := range base {
					if fps[i] != base[i] {
						t.Errorf("par=%d instance %d:\n got  %+v\n want %+v", par, i, fps[i], base[i])
					}
				}
			}
		})
	}
}
