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

// TestServiceMSClosedForm checks a transfer that starts mid-track and
// crosses two cylinder boundaries against the model's closed form. From
// an idle head on another cylinder at time 0: a seek, a rotational wait
// to the start offset, the bytes at one track per rotation, and at each
// crossing a single-track seek whose realignment rounds it up to a whole
// rotation (ST + SI < R, and the head left the previous track at offset
// 0).
func TestServiceMSClosedForm(t *testing.T) {
	g := WrenIV()
	bpt := g.BytesPerTrack
	const cyl, track, inTrack = 700, 6, 5000
	start := cyl*g.CylinderBytes() + track*bpt + inTrack
	// Three tracks to the end of cylinder 700, all nine of 701, four of
	// 702 and 300 bytes of a fifth: two crossings.
	n := (int64(g.TracksPerCylinder-track))*bpt - inTrack + 9*bpt + 4*bpt + 300
	d := &drive{geom: g, headCyl: 200}
	seg := segment{start: start, n: n}
	got := d.serviceMS(0, &seg)

	R := g.RotationMS
	seek0 := g.SeekMS(cyl - 200)
	rot0 := math.Mod(float64(inTrack)/float64(bpt)*R-seek0, R)
	if rot0 < 0 {
		rot0 += R
	}
	xfer := float64(n) / float64(bpt) * R
	cross := g.SeekMS(1)
	want := seek0 + rot0 + xfer + 2*R
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("serviceMS = %.12f, closed form %.12f", got, want)
	}
	bd := d.lastBD
	if math.Abs(bd.seekMS-(seek0+2*cross)) > 1e-9 ||
		math.Abs(bd.rotMS-(rot0+2*(R-cross))) > 1e-9 ||
		math.Abs(bd.xferMS-xfer) > 1e-9 {
		t.Fatalf("breakdown %+v, want seek %.9f rot %.9f xfer %.9f",
			bd, seek0+2*cross, rot0+2*(R-cross), xfer)
	}
	if d.headCyl != cyl+2 || d.seeks != 3 {
		t.Fatalf("head on cylinder %d after %d seeks, want %d after 3", d.headCyl, d.seeks, cyl+2)
	}
}

// refServiceMS is the track walk written with a division per track: the
// form serviceMS must reproduce bit for bit.
func refServiceMS(d *drive, start float64, seg *segment) float64 {
	g := d.geom
	cylOf := func(off int64) int { return int(off/g.BytesPerTrack) / g.TracksPerCylinder }
	t := start
	var bd breakdown
	if cyl := cylOf(seg.start); cyl != d.headCyl {
		s := g.SeekMS(cyl - d.headCyl)
		t += s
		bd.seekMS += s
		d.headCyl = cyl
	}
	for pos, remaining := seg.start, seg.n; remaining > 0; {
		inTrack := pos % g.BytesPerTrack
		chunk := g.BytesPerTrack - inTrack
		if chunk > remaining {
			chunk = remaining
		}
		rot := d.rotWaitMS(t, inTrack)
		t += rot
		bd.rotMS += rot
		xfer := float64(chunk) / float64(g.BytesPerTrack) * g.RotationMS
		t += xfer
		bd.xferMS += xfer
		pos += chunk
		remaining -= chunk
		if cyl := cylOf(pos); remaining > 0 && cyl != d.headCyl {
			s := g.SeekMS(cyl - d.headCyl)
			t += s
			bd.seekMS += s
			d.headCyl = cyl
		}
	}
	extra := float64(seg.extraRotations) * g.RotationMS
	t += extra
	bd.rotMS += extra
	d.lastBD = bd
	return t - start
}

// TestServiceMSMatchesPerTrackDivision runs serviceMS and refServiceMS
// side by side over seeded segments of every shape — sub-track, whole
// tracks, cylinder-spanning, read-modify-write — on the Wren IV and on
// geometries whose tracks do not divide the unit sizes evenly, and
// requires identical bits for the time, its breakdown and the head.
func TestServiceMSMatchesPerTrackDivision(t *testing.T) {
	geoms := []Geometry{
		WrenIV(),
		{BytesPerTrack: 32 * units.KB, TracksPerCylinder: 4, Cylinders: 300, RotationMS: 8.33, SingleTrackSeekMS: 2, SeekIncrementMS: 0.01},
		{BytesPerTrack: 1000, TracksPerCylinder: 1, Cylinders: 5000, RotationMS: 3, SingleTrackSeekMS: 4, SeekIncrementMS: 0.5},
	}
	rng := rand.New(rand.NewSource(3))
	for gi, g := range geoms {
		got, ref := &drive{geom: g}, &drive{geom: g}
		now := 0.0
		for i := 0; i < 20000; i++ {
			var n int64
			switch rng.Intn(4) {
			case 0:
				n = rng.Int63n(g.BytesPerTrack) + 1
			case 1:
				n = g.BytesPerTrack * (rng.Int63n(3) + 1)
			case 2:
				n = rng.Int63n(3*g.CylinderBytes()) + 1
			default:
				n = rng.Int63n(256*units.KB) + 1
			}
			if n > g.Capacity() {
				n = g.Capacity()
			}
			seg := segment{start: rng.Int63n(g.Capacity() - n + 1), n: n, extraRotations: rng.Intn(3) / 2}
			if rng.Intn(2) == 0 {
				seg.start -= seg.start % g.BytesPerTrack
			}
			a, b := got.serviceMS(now, &seg), refServiceMS(ref, now, &seg)
			if math.Float64bits(a) != math.Float64bits(b) || got.lastBD != ref.lastBD || got.headCyl != ref.headCyl {
				t.Fatalf("geometry %d, segment %d [%d,+%d) at %v: serviceMS %v %+v head %d, per-track division %v %+v head %d",
					gi, i, seg.start, seg.n, now, a, got.lastBD, got.headCyl, b, ref.lastBD, ref.headCyl)
			}
			now += a + rng.Float64()*5
		}
	}
}
