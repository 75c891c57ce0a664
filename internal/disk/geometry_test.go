package disk

import (
	"fmt"
	"math"
	"testing"

	"rofs/internal/units"
)

func TestWrenIVMatchesTable1(t *testing.T) {
	g := WrenIV()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.BytesPerTrack != 24*units.KB {
		t.Errorf("BytesPerTrack = %d", g.BytesPerTrack)
	}
	if g.TracksPerCylinder != 9 || g.Cylinders != 1600 {
		t.Errorf("geometry = %d platters, %d cylinders", g.TracksPerCylinder, g.Cylinders)
	}
	if g.RotationMS != 16.67 || g.SingleTrackSeekMS != 5.5 || g.SeekIncrementMS != 0.0320 {
		t.Errorf("timing = %v", g)
	}
	// One drive: 24K * 9 * 1600 = 337.5M.
	if got := g.Capacity(); got != 337*units.MB+512*units.KB {
		t.Errorf("Capacity = %s", units.Format(got))
	}
	// Eight drives: the paper's "2.8 G" is decimal; units.Format, which
	// table1 prints, is binary.
	total := 8 * g.Capacity()
	if total != 2_831_155_200 {
		t.Errorf("8-drive capacity = %d bytes, want 2,831,155,200", total)
	}
	if got := fmt.Sprintf("%.1f G", float64(total)/1e9); got != "2.8 G" {
		t.Errorf("8-drive capacity in decimal units = %s, want the paper's 2.8 G", got)
	}
	if got := units.Format(total); got != "2.6G" {
		t.Errorf("8-drive capacity in binary units = %s, want 2.6G", got)
	}
}

func TestSeekMS(t *testing.T) {
	g := WrenIV()
	if got := g.SeekMS(0); got != 0 {
		t.Errorf("SeekMS(0) = %g", got)
	}
	if got := g.SeekMS(1); math.Abs(got-5.532) > 1e-9 {
		t.Errorf("SeekMS(1) = %g, want ST+SI = 5.532", got)
	}
	if got := g.SeekMS(100); math.Abs(got-(5.5+100*0.032)) > 1e-9 {
		t.Errorf("SeekMS(100) = %g", got)
	}
	if g.SeekMS(-10) != g.SeekMS(10) {
		t.Error("SeekMS not symmetric in distance")
	}
}

func TestBandwidths(t *testing.T) {
	g := WrenIV()
	peak := g.PeakBandwidth()
	sustained := g.SustainedBandwidth()
	// Peak: one 24K track per 16.67 ms rotation ≈ 1474 bytes/ms.
	if math.Abs(peak-float64(24*units.KB)/16.67) > 1e-9 {
		t.Errorf("PeakBandwidth = %g", peak)
	}
	// Sustained pays one extra rotation per cylinder: 9/10 of peak.
	if math.Abs(sustained-peak*9.0/10.0) > 1e-9 {
		t.Errorf("SustainedBandwidth = %g, want %g", sustained, peak*0.9)
	}
	// Eight drives land near the paper's 10.8 M/s figure.
	sys := 8 * sustained * 1000 // bytes/sec
	if sys < 10.0e6 || sys > 11.5e6 {
		t.Errorf("system sustained = %.2f M/s, want ≈10.8", sys/1e6)
	}
	// In closed form: eight drives each move a 9-track cylinder of 24K
	// tracks per 10 rotations of 16.67 ms, 10,614,709 bytes/sec.
	if want := 8 * 9 * float64(24*units.KB) / (10 * 16.67) * 1000; math.Abs(sys-want) > 1e-6 {
		t.Errorf("system sustained = %.3f bytes/sec, want %.3f", sys, want)
	}
}

func TestLocate(t *testing.T) {
	g := WrenIV()
	cases := []struct {
		off     int64
		cyl, tr int
		inTrack int64
	}{
		{0, 0, 0, 0},
		{100, 0, 0, 100},
		{24 * units.KB, 0, 1, 0},
		{9 * 24 * units.KB, 1, 0, 0},
		{9*24*units.KB + 24*units.KB + 5, 1, 1, 5},
	}
	for _, c := range cases {
		cyl, tr, in := g.locate(c.off)
		if cyl != c.cyl || tr != c.tr || in != c.inTrack {
			t.Errorf("locate(%d) = (%d,%d,%d), want (%d,%d,%d)",
				c.off, cyl, tr, in, c.cyl, c.tr, c.inTrack)
		}
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{},
		{BytesPerTrack: 1024, TracksPerCylinder: 0, Cylinders: 10, RotationMS: 10},
		{BytesPerTrack: 1024, TracksPerCylinder: 2, Cylinders: 0, RotationMS: 10},
		{BytesPerTrack: 1024, TracksPerCylinder: 2, Cylinders: 10, RotationMS: 0},
		{BytesPerTrack: 1024, TracksPerCylinder: 2, Cylinders: 10, RotationMS: 10, SingleTrackSeekMS: -1},
	}
	for i, g := range bad {
		if g.Validate() == nil {
			t.Errorf("case %d: bad geometry validated", i)
		}
	}
}
