package disk

import (
	"math"
	"slices"
	"testing"

	"rofs/internal/units"
)

// smallWren returns a Wren IV with fewer cylinders — the "smaller, older
// drive" of a heterogeneous array.
func smallWren(cyls int) Geometry {
	g := WrenIV()
	g.Cylinders = cyls
	return g
}

func TestHeterogeneousValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 2
	cfg.Geometries = []Geometry{WrenIV()} // wrong length
	if cfg.Validate() == nil {
		t.Error("geometry count mismatch accepted")
	}
	cfg.Geometries = []Geometry{WrenIV(), {}}
	if cfg.Validate() == nil {
		t.Error("invalid per-drive geometry accepted")
	}
	cfg.Geometries = []Geometry{WrenIV(), smallWren(800)}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid heterogeneous config rejected: %v", err)
	}
}

func TestHeterogeneousCapacityBoundedBySmallest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 2
	cfg.Geometries = []Geometry{WrenIV(), smallWren(800)}
	s, _ := newSys(t, cfg)
	want := 2 * smallWren(800).Capacity()
	if s.CapacityBytes() != want {
		t.Fatalf("capacity = %d, want 2 × smaller drive = %d", s.CapacityBytes(), want)
	}
}

func TestHeterogeneousSeeksUsePerDriveGeometry(t *testing.T) {
	// Two drives with very different seek costs: a request landing on the
	// slow drive must take longer than the same-shaped request on the
	// fast one.
	fast := WrenIV()
	slow := WrenIV()
	slow.SingleTrackSeekMS = 50
	cfg := DefaultConfig()
	cfg.NDisks = 2
	cfg.Geometries = []Geometry{fast, slow}
	s, eng := newSys(t, cfg)

	cylUnits := WrenIV().CylinderBytes() / cfg.UnitBytes
	// Unit addresses mapping to cylinder 100 of drive 0 and drive 1: the
	// striped space interleaves 24K stripe units, so drive d holds stripe
	// unit indices ≡ d (mod 2).
	suUnits := cfg.StripeUnitBytes / cfg.UnitBytes
	addrOn := func(d int64, localCyl int64) int64 {
		localSU := localCyl * cylUnits / suUnits // stripe units into the drive
		return (localSU*2 + d) * suUnits         // back to linear space
	}
	read := func(addr int64) float64 {
		var done float64
		s.Submit(&Request{Runs: []Run{{addr, 1}}, Done: func(now float64) { done = now }})
		start := eng.Now()
		eng.Run(math.Inf(1))
		return done - start
	}
	tFast := read(addrOn(0, 100))
	tSlow := read(addrOn(1, 100))
	if tSlow <= tFast+40 {
		t.Fatalf("slow drive seek not reflected: fast=%.2f slow=%.2f", tFast, tSlow)
	}
}

func TestHeterogeneousBandwidthSums(t *testing.T) {
	fast := WrenIV()
	slow := WrenIV()
	slow.RotationMS = 33.34 // half the transfer rate
	cfg := DefaultConfig()
	cfg.NDisks = 2
	cfg.Geometries = []Geometry{fast, slow}
	s, _ := newSys(t, cfg)
	want := fast.SustainedBandwidth() + slow.SustainedBandwidth()
	if got := s.MaxBandwidth(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MaxBandwidth = %g, want %g", got, want)
	}
}

func TestHeterogeneousMappingStaysInBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NDisks = 3
	cfg.Geometries = []Geometry{WrenIV(), smallWren(400), WrenIV()}
	s, eng := newSys(t, cfg)
	// Read the very last addressable units — must not panic and must
	// complete.
	n := 48 * units.KB / cfg.UnitBytes
	var done bool
	s.Submit(&Request{
		Runs: []Run{{s.Units() - n, n}},
		Done: func(float64) { done = true },
	})
	eng.Run(math.Inf(1))
	if !done {
		t.Fatal("tail read never completed")
	}
}

// TestHeterogeneousSSTFUsesOwnGeometry checks that each drive measures a
// queued segment's cylinder on its own geometry. Drive 1 has one track
// per cylinder, so its local tracks 2 and 8 are cylinders 2 and 8; on a
// Wren IV both would be cylinder 0, the head's, and the tie would go to
// the earlier arrival. SSTF must serve track 2 first although track 8
// arrived first.
func TestHeterogeneousSSTFUsesOwnGeometry(t *testing.T) {
	flat := WrenIV()
	flat.TracksPerCylinder = 1
	flat.Cylinders = 9 * WrenIV().Cylinders
	cfg := DefaultConfig()
	cfg.NDisks = 2
	cfg.Geometries = []Geometry{WrenIV(), flat}
	s, eng := newSys(t, cfg)
	// A 24K stripe unit is one track: drive 1's local track k is the
	// striped space's stripe unit 2k+1.
	suUnits := cfg.StripeUnitBytes / cfg.UnitBytes
	var order []int
	onDrive1 := func(id int, track int64) *Request {
		return &Request{
			Runs: []Run{{(2*track + 1) * suUnits, 1}},
			Done: func(float64) { order = append(order, id) },
		}
	}
	s.Submit(onDrive1(0, 0))
	s.Submit(onDrive1(8, 8))
	s.Submit(onDrive1(2, 2))
	eng.Run(math.Inf(1))
	if !slices.Equal(order, []int{0, 2, 8}) {
		t.Fatalf("drive 1 served %v, want [0 2 8]", order)
	}
	if got := s.drives[1].headCyl; got != 8 {
		t.Fatalf("drive 1 head on cylinder %d, want 8", got)
	}
}
