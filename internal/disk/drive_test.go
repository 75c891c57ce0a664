package disk

import (
	"math"
	"math/rand"
	"testing"

	"rofs/internal/units"
)

// modRotPos is the rotational phase computed with math.Mod, the reference
// rotPos must reproduce bit for bit.
func modRotPos(g Geometry, t float64) float64 {
	frac := math.Mod(t/g.RotationMS, 1)
	if frac < 0 {
		frac += 1
	}
	return frac * float64(g.BytesPerTrack)
}

// TestRotPosMatchesMod checks that rotPos is bit-identical to the math.Mod
// phase at the edges of the floating-point range — zero, whole rotations
// and one ulp either side of them, times past 2^52 rotations where every
// quotient is an integer — and at seeded random times across 10^9 ms.
func TestRotPosMatchesMod(t *testing.T) {
	geoms := []Geometry{WrenIV(), {BytesPerTrack: 32 * units.KB, RotationMS: 8.33}, {BytesPerTrack: 1000, RotationMS: 0.1}}
	for _, g := range geoms {
		d := &drive{geom: g}
		check := func(tm float64) {
			t.Helper()
			if got, want := d.rotPos(tm), modRotPos(g, tm); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("R=%g: rotPos(%v) = %v, math.Mod gives %v", g.RotationMS, tm, got, want)
			}
		}
		check(0)
		for _, k := range []float64{1, 2, 3, 7, 10, 1e3, 12345, 1e6, 1e9 / g.RotationMS, 1 << 40} {
			tm := k * g.RotationMS
			check(tm)
			check(math.Nextafter(tm, 0))
			check(math.Nextafter(tm, math.Inf(1)))
		}
		for _, k := range []float64{1 << 52, 1<<52 + 1, 1 << 53, 1 << 60, 1e300} {
			check(k * g.RotationMS)
			check(math.Nextafter(k*g.RotationMS, math.Inf(1)))
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 100000; i++ {
			check(rng.Float64() * 1e9)
		}
	}
}

// TestRotPosNegative pins the negative-time branch, which simulated time
// never reaches but which must keep the math.Mod behaviour: the phase
// wraps into [0, BytesPerTrack).
func TestRotPosNegative(t *testing.T) {
	g := WrenIV()
	d := &drive{geom: g}
	for _, tm := range []float64{math.Copysign(0, -1), -1e-12, -g.RotationMS / 4, -g.RotationMS, -3.5 * g.RotationMS, -1e9} {
		got, want := d.rotPos(tm), modRotPos(g, tm)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("rotPos(%v) = %v, math.Mod gives %v", tm, got, want)
		}
		if got < 0 || got > float64(g.BytesPerTrack) {
			t.Errorf("rotPos(%v) = %v outside the track", tm, got)
		}
	}
	if got, want := d.rotPos(-g.RotationMS/4), 0.75*float64(g.BytesPerTrack); math.Abs(got-want) > 1e-9 {
		t.Errorf("rotPos(-R/4) = %v, want %v", got, want)
	}
}

// BenchmarkServiceMS times the drive service-time model on 8K reads
// scattered over a Wren IV: a seek, a rotational wait and a track-walked
// transfer per call.
func BenchmarkServiceMS(b *testing.B) {
	g := WrenIV()
	d := &drive{geom: g}
	const n = 8 * units.KB
	starts := make([]int64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range starts {
		starts[i] = rng.Int63n(g.Capacity()-n) &^ (units.KB - 1)
	}
	seg := segment{n: n}
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.start = starts[i%len(starts)]
		now += d.serviceMS(now, &seg)
	}
}
