package disk

import (
	"fmt"
	"math"

	"rofs/internal/sim"
)

// drive is one spindle: geometry, current head position, and a queue of
// waiting segments in arrival order. The rotational phase is a pure
// function of absolute simulated time (all spindles are synchronized and
// never slip), so the drive itself only needs to remember where its head
// is.
type drive struct {
	id      int
	geom    Geometry
	headCyl int
	sweepUp bool // SCAN: current elevator direction

	busy  bool
	cur   *segment // in-flight segment, nil when idle
	queue []queued

	// onDone is the drive's single cached completion handler (built once in
	// New): firing a service completion schedules no per-service closure.
	onDone sim.Handler

	// Statistics. busyMS is always the sum of the three phase components
	// (seek + rotational wait + transfer, with read-modify-write rotations
	// counted as rotational wait).
	busyMS    float64
	seekMS    float64
	rotMS     float64
	xferMS    float64
	seeks     int64
	bytesRead int64
	bytesWrit int64

	// lastBD is the phase breakdown of the most recent serviceMS call,
	// read by the span trace before the next segment starts.
	lastBD breakdown
}

// breakdown decomposes one segment's service time into the paper's §2.1
// cost components.
type breakdown struct {
	seekMS float64 // head movement (initial seek + cylinder crossings)
	rotMS  float64 // rotational waits, incl. read-modify-write rotations
	xferMS float64 // media transfer
}

// queued is one waiting segment and its starting cylinder on the drive's
// own geometry, computed once when it joins the queue so the SSTF and
// SCAN picks compare integers.
type queued struct {
	cyl int
	seg *segment
}

// segment is one contiguous byte range on one drive, the unit of queueing.
type segment struct {
	start int64 // byte offset within the drive
	n     int64 // byte length
	write bool
	// extraRotations models read-modify-write penalties (RAID-5 and parity
	// striping small writes): the block must come around again before the
	// write-back pass.
	extraRotations int
	enqueueMS      float64  // when the segment joined its drive's queue
	req            *pending // the request this segment is part of
	// diskFailed marks the in-flight segment of a drive that failed
	// mid-service (FailDriveNow): its request completes on the failure
	// path. A per-segment flag rather than a live check against the failed
	// drive index, so rebuild writes to the spare in the same slot are
	// unaffected.
	diskFailed bool
}

// rotPos returns the angular position of the platter at absolute time t,
// expressed as a byte offset within a track [0, BytesPerTrack). The phase
// is the exact fractional part of x = t/RotationMS: for x > 0, x - Floor(x)
// equals math.Mod(x, 1) bit for bit and costs far less. Simulated time is
// never negative; x <= 0 keeps the math.Mod form so no input changes.
func (d *drive) rotPos(t float64) float64 {
	x := t / d.geom.RotationMS
	frac := x - math.Floor(x)
	if x <= 0 {
		if frac = math.Mod(x, 1); frac < 0 {
			frac += 1
		}
	}
	return frac * float64(d.geom.BytesPerTrack)
}

// rotWaitMS returns the time until the platter rotates to byte offset
// target (within a track) starting from absolute time t. Waits within a
// nanosecond of a full rotation are floating-point wrap artifacts (the
// head is already on the sector) and snap to zero.
func (d *drive) rotWaitMS(t float64, target int64) float64 {
	cur := d.rotPos(t)
	delta := float64(target) - cur
	if delta < 0 {
		delta += float64(d.geom.BytesPerTrack)
	}
	wait := delta / float64(d.geom.BytesPerTrack) * d.geom.RotationMS
	if d.geom.RotationMS-wait < 1e-9 {
		wait = 0
	}
	return wait
}

// serviceMS computes the total service time for seg starting at absolute
// time start, updating the head position. It walks the transfer track by
// track: head switches within a cylinder are free; a cylinder crossing
// costs a single-track seek (and whatever rotational realignment falls out
// of the phase model). Only the start is placed by division; the walk
// counts tracks and cylinders from there, and a whole track transfers in
// exactly one rotation (chunk/BytesPerTrack is 1).
func (d *drive) serviceMS(start float64, seg *segment) float64 {
	g := d.geom
	if seg.start < 0 || seg.n <= 0 || seg.start+seg.n > g.Capacity() {
		panic(fmt.Sprintf("disk: segment [%d,+%d) outside drive capacity %d",
			seg.start, seg.n, g.Capacity()))
	}
	t := start
	var bd breakdown
	cyl, track, inTrack := g.locate(seg.start)
	remaining := seg.n
	for {
		if cyl != d.headCyl {
			s := g.SeekMS(cyl - d.headCyl)
			t += s
			bd.seekMS += s
			d.headCyl = cyl
			d.seeks++
		}
		chunk := g.BytesPerTrack - inTrack
		if chunk > remaining {
			chunk = remaining
		}
		xfer := g.RotationMS // a whole track
		if chunk < g.BytesPerTrack {
			xfer = float64(chunk) / float64(g.BytesPerTrack) * g.RotationMS
		}
		rot := d.rotWaitMS(t, inTrack)
		t += rot
		bd.rotMS += rot
		t += xfer
		bd.xferMS += xfer
		remaining -= chunk
		if remaining == 0 {
			break
		}
		inTrack = 0
		if track++; track == g.TracksPerCylinder {
			track = 0
			cyl++
		}
	}
	if seg.extraRotations > 0 {
		extra := float64(seg.extraRotations) * g.RotationMS
		t += extra
		bd.rotMS += extra
	}
	if seg.write {
		d.bytesWrit += seg.n
	} else {
		d.bytesRead += seg.n
	}
	d.lastBD = bd
	d.seekMS += bd.seekMS
	d.rotMS += bd.rotMS
	d.xferMS += bd.xferMS
	d.busyMS += t - start
	return t - start
}
