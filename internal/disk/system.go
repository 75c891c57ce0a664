package disk

import (
	"fmt"

	"rofs/internal/metrics"
	"rofs/internal/sim"
	"rofs/internal/units"
)

// Layout selects how the array presents its drives as one linear address
// space (§2.1 of the paper).
type Layout int

const (
	// Striped spreads data round-robin across all drives in stripe-unit
	// chunks with no redundancy. All of the paper's published results use
	// this layout.
	Striped Layout = iota
	// Mirrored keeps every byte on two identical drives; reads go to the
	// less busy replica, writes to both.
	Mirrored
	// RAID5 rotates one parity stripe unit per row across the array
	// [PATT88]. Small writes pay read-modify-write on the data and parity
	// drives; full-stripe writes pay only the parity write.
	RAID5
	// ParityStriped stores parity across drives but allocates files to
	// single drives [GRAY90]: the linear space is the concatenation of the
	// drives' data regions rather than a round-robin interleave.
	ParityStriped
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case Striped:
		return "striped"
	case Mirrored:
		return "mirrored"
	case RAID5:
		return "raid5"
	case ParityStriped:
		return "parity-striped"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Scheduler selects the per-drive queue discipline.
type Scheduler int

const (
	// SSTF (shortest seek time first) serves the queued segment closest
	// to the head, ties broken in arrival order. With the paper's 20+
	// concurrent users the per-drive queues run deep, and seek-sorting is
	// what makes its application-throughput magnitudes reachable.
	SSTF Scheduler = iota
	// FCFS serves segments strictly in arrival order.
	FCFS
	// SCAN is the elevator (LOOK variant): the head sweeps in one
	// direction serving the nearest segment ahead of it, reversing when
	// nothing remains in that direction. Latency tails are fairer than
	// SSTF's at similar throughput.
	SCAN
)

// String implements fmt.Stringer.
func (s Scheduler) String() string {
	switch s {
	case FCFS:
		return "fcfs"
	case SCAN:
		return "scan"
	default:
		return "sstf"
	}
}

// Config describes a disk system. The zero value is not valid; use
// DefaultConfig for the paper's Table 1 array.
type Config struct {
	Geometry        Geometry
	NDisks          int
	Layout          Layout
	UnitBytes       int64 // disk unit: the minimum transfer granule (§2.1)
	StripeUnitBytes int64 // bytes per drive before allocation moves on
	Scheduler       Scheduler

	// Geometries, when non-empty, gives each drive its own geometry —
	// the paper's disk system "is designed to allow multiple
	// heterogeneous devices" (§2.1). Its length must equal NDisks; the
	// striped address space is bounded by the smallest drive (larger
	// drives' excess capacity is unaddressed). When empty, every drive
	// uses Geometry.
	Geometries []Geometry
}

// geometryOf returns drive i's geometry.
func (c Config) geometryOf(i int) Geometry {
	if len(c.Geometries) == c.NDisks {
		return c.Geometries[i]
	}
	return c.Geometry
}

// minCapacity returns the smallest drive capacity in the array.
func (c Config) minCapacity() int64 {
	min := c.geometryOf(0).Capacity()
	for i := 1; i < c.NDisks; i++ {
		if cap := c.geometryOf(i).Capacity(); cap < min {
			min = cap
		}
	}
	return min
}

// DefaultConfig returns the simulated configuration of Table 1: eight Wren
// IV drives (2,831,155,200 bytes: the paper's 2.8 G in decimal units,
// 2.6G in units.Format's binary ones), 1K disk units, one-track (24K)
// stripe units, plain striping.
func DefaultConfig() Config {
	return Config{
		Geometry:        WrenIV(),
		NDisks:          8,
		Layout:          Striped,
		UnitBytes:       1 * units.KB,
		StripeUnitBytes: 24 * units.KB,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if len(c.Geometries) != 0 {
		if len(c.Geometries) != c.NDisks {
			return fmt.Errorf("disk: %d per-drive geometries for %d drives",
				len(c.Geometries), c.NDisks)
		}
		for i, g := range c.Geometries {
			if err := g.Validate(); err != nil {
				return fmt.Errorf("disk: drive %d: %w", i, err)
			}
		}
	}
	switch {
	case c.NDisks < 1:
		return fmt.Errorf("disk: NDisks %d must be >= 1", c.NDisks)
	case c.UnitBytes <= 0:
		return fmt.Errorf("disk: UnitBytes %d must be positive", c.UnitBytes)
	case c.StripeUnitBytes < c.UnitBytes:
		return fmt.Errorf("disk: stripe unit %d smaller than disk unit %d",
			c.StripeUnitBytes, c.UnitBytes)
	case c.StripeUnitBytes%c.UnitBytes != 0:
		return fmt.Errorf("disk: stripe unit %d not a multiple of disk unit %d",
			c.StripeUnitBytes, c.UnitBytes)
	}
	switch c.Layout {
	case Mirrored:
		if c.NDisks%2 != 0 {
			return fmt.Errorf("disk: mirrored layout needs an even disk count, got %d", c.NDisks)
		}
	case RAID5, ParityStriped:
		if c.NDisks < 2 {
			return fmt.Errorf("disk: %v layout needs >= 2 disks, got %d", c.Layout, c.NDisks)
		}
	}
	return nil
}

// Run is a contiguous range of the linear address space, in disk units.
type Run struct {
	Start int64 // first disk unit
	Len   int64 // number of disk units
}

// Request is one logical I/O: a set of runs read or written together. The
// request completes — and Done fires — when the last per-drive segment
// finishes.
type Request struct {
	Runs  []Run
	Write bool
	Done  func(now float64)
	// Fail fires instead of Done when any of the request's segments failed
	// — a transient media error or a mid-run drive failure. Only possible
	// on a system armed with ArmFaults; with Fail nil a failed request
	// falls back to Done (the caller cannot distinguish, but the operation
	// stream continues).
	Fail func(now float64)
	// Internal marks background maintenance I/O (compaction merges, like
	// the rebuild engine's reconstruction reads): it competes through the
	// per-drive queues and busy time as usual but is excluded from the
	// system's throughput and latency accounting, and — being assumed
	// verified — never draws transient errors.
	Internal bool
}

// Bytes returns the request's total payload given the system's unit size.
func (r *Request) bytes(unitBytes int64) int64 {
	var n int64
	for _, run := range r.Runs {
		n += run.Len
	}
	return n * unitBytes
}

// System is an array of drives addressed as a linear space of disk units.
// It is single-goroutine like the simulator that owns it.
type System struct {
	cfg    Config
	eng    *sim.Engine
	drives []*drive

	dataBytes   int64 // user-visible capacity in bytes
	perDiskData int64 // ParityStriped: data bytes per drive

	totalBytes int64 // payload bytes completed
	requests   int64

	spanTrace SpanTrace

	// Metrics handles (nil when metrics are disabled; see SetMetrics).
	mRequests      *metrics.Counter
	mBytes         *metrics.Counter
	mSegments      *metrics.Counter
	mLatency       *metrics.Hist
	mQueueWait     *metrics.Hist
	mTransient     *metrics.Counter
	mDriveFailures *metrics.Counter
	mRebuildBytes  *metrics.Counter

	failed int // index of the failed drive, or -1

	// flt is the armed fault machinery (fault.go), nil on a healthy
	// system; usablePerDrive is the addressable byte span of each drive,
	// the space a rebuild reconstructs.
	flt            *faultState
	usablePerDrive int64

	// Request decomposition and completion recycle through these buffers:
	// segScratch and lastSeg are the per-Submit working set (the disk
	// system is single-goroutine like the simulator that owns it), and
	// segFree/pendFree are free lists refilled by the completion path, so
	// steady-state request traffic allocates nothing.
	segScratch []placed
	lastSeg    []int32 // per-drive index of its latest segment in segScratch, -1 none
	segFree    []*segment
	pendFree   []*pending
}

// pending tracks one in-flight request's completion: segments left to
// finish, the payload to credit, the submission time (for request latency),
// and the caller's Done. failed marks a request poisoned by a transient
// error or drive failure (it completes on the fail path and credits
// nothing); internal marks rebuild I/O, which skips request accounting
// entirely.
type pending struct {
	remaining int
	payload   int64
	submitMS  float64
	done      func(now float64)
	fail      func(now float64)
	failed    bool
	internal  bool
}

// Span is one segment's full lifecycle: when it joined the drive's queue,
// when service began, and the service time broken into the paper's §2.1
// cost components. WaitMS + SeekMS + RotMS + XferMS is the segment's total
// time in the disk system, and SeekMS + RotMS + XferMS == ServiceMS.
type Span struct {
	Disk      int
	Start     int64 // byte offset within the drive
	N         int64 // byte length
	Write     bool
	EnqueueMS float64 // absolute simulated time the segment was enqueued
	StartMS   float64 // absolute simulated time service began
	WaitMS    float64 // queueing delay: StartMS - EnqueueMS
	SeekMS    float64 // head movement
	RotMS     float64 // rotational waits, incl. read-modify-write rotations
	XferMS    float64 // media transfer
	ServiceMS float64 // SeekMS + RotMS + XferMS
}

// SpanTrace observes every segment's lifecycle span as service begins.
type SpanTrace func(sp Span)

// SetSpanTrace installs the span observer (nil disables it). It is the
// disk system's one per-segment hook: core's event trace writes a "seg"
// record from each span.
func (s *System) SetSpanTrace(fn SpanTrace) { s.spanTrace = fn }

// latencyBoundsMS buckets request and queue-wait latencies: sub-millisecond
// cache-adjacent hits up through multi-second saturation tails.
var latencyBoundsMS = []float64{
	0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
}

// SetMetrics attaches metrics handles to the system. A nil registry (the
// default) leaves all handles nil, and the instrumentation points reduce
// to nil checks.
func (s *System) SetMetrics(reg *metrics.Registry) {
	s.mRequests = reg.Counter("disk.requests")
	s.mBytes = reg.Counter("disk.bytes")
	s.mSegments = reg.Counter("disk.segments")
	s.mLatency = reg.Histogram("disk.request_latency_ms", latencyBoundsMS)
	s.mQueueWait = reg.Histogram("disk.queue_wait_ms", latencyBoundsMS)
	s.mTransient = reg.Counter("disk.transient_errors")
	s.mDriveFailures = reg.Counter("disk.drive_failures")
	s.mRebuildBytes = reg.Counter("disk.rebuild_bytes")
}

// New builds a disk system attached to the given engine.
func New(cfg Config, eng *sim.Engine) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		return nil, fmt.Errorf("disk: nil engine")
	}
	s := &System{cfg: cfg, eng: eng, failed: -1, lastSeg: make([]int32, cfg.NDisks)}
	for i := 0; i < cfg.NDisks; i++ {
		d := &drive{id: i, geom: cfg.geometryOf(i)}
		// One completion continuation per drive for its lifetime; the
		// segment being serviced rides in d.cur rather than a per-service
		// closure environment.
		d.onDone = func(now float64) { s.complete(d, now) }
		s.drives = append(s.drives, d)
	}
	// Only whole stripe units are addressable on each drive, and a
	// heterogeneous array is bounded by its smallest drive; a trailing
	// partial stripe unit is unusable (otherwise the last stripe row
	// would map past the end of the platter).
	usable := units.RoundDown(cfg.minCapacity(), cfg.StripeUnitBytes)
	if usable == 0 {
		return nil, fmt.Errorf("disk: stripe unit %d larger than a drive", cfg.StripeUnitBytes)
	}
	s.usablePerDrive = usable
	switch cfg.Layout {
	case Striped:
		s.dataBytes = usable * int64(cfg.NDisks)
	case Mirrored:
		s.dataBytes = usable * int64(cfg.NDisks) / 2
	case RAID5:
		s.dataBytes = usable * int64(cfg.NDisks-1)
	case ParityStriped:
		s.perDiskData = units.RoundDown(usable*int64(cfg.NDisks-1)/int64(cfg.NDisks), cfg.StripeUnitBytes)
		s.dataBytes = s.perDiskData * int64(cfg.NDisks)
	default:
		return nil, fmt.Errorf("disk: unknown layout %v", cfg.Layout)
	}
	s.dataBytes = units.RoundDown(s.dataBytes, cfg.UnitBytes)
	return s, nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// UnitBytes returns the disk unit size in bytes.
func (s *System) UnitBytes() int64 { return s.cfg.UnitBytes }

// Units returns the user-visible capacity in disk units.
func (s *System) Units() int64 { return s.dataBytes / s.cfg.UnitBytes }

// CapacityBytes returns the user-visible capacity in bytes.
func (s *System) CapacityBytes() int64 { return s.dataBytes }

// dataDisks returns how many drives' worth of *read* bandwidth the layout
// exposes — the denominator of every throughput percentage. Mirrored
// reads are served by both replicas, so the full array counts even though
// capacity is halved.
func (s *System) dataDisks() int {
	switch s.cfg.Layout {
	case RAID5, ParityStriped:
		return s.cfg.NDisks - 1
	default:
		return s.cfg.NDisks
	}
}

// MaxBandwidth returns the maximum sustained sequential bandwidth of the
// system in bytes per millisecond — the denominator for every throughput
// percentage the harness reports (§3: "expressed as a percent of the
// sustained sequential performance the disk system is capable of
// providing"). For heterogeneous arrays it sums the drives' individual
// sustained rates, scaled by the fraction of drives carrying data.
func (s *System) MaxBandwidth() float64 {
	var sum float64
	for i := 0; i < s.cfg.NDisks; i++ {
		sum += s.cfg.geometryOf(i).SustainedBandwidth()
	}
	return sum * float64(s.dataDisks()) / float64(s.cfg.NDisks)
}

// TotalBytes returns the payload bytes of all completed requests.
func (s *System) TotalBytes() int64 { return s.totalBytes }

// Requests returns the number of completed requests.
func (s *System) Requests() int64 { return s.requests }

// DriveStats summarizes one drive's activity. BusyMS always equals
// SeekMS + RotMS + TransferMS.
type DriveStats struct {
	BusyMS       float64
	SeekMS       float64
	RotMS        float64
	TransferMS   float64
	Seeks        int64
	BytesRead    int64
	BytesWritten int64
	QueueLen     int // queued segments, incl. the one in service
}

// Stats returns per-drive activity summaries.
func (s *System) Stats() []DriveStats {
	return s.StatsInto(make([]DriveStats, len(s.drives)))
}

// StatsInto fills out (growing it as needed) with per-drive activity
// summaries and returns it — the allocation-free form used by the metrics
// samplers, which run once per sampling interval.
func (s *System) StatsInto(out []DriveStats) []DriveStats {
	if cap(out) < len(s.drives) {
		out = make([]DriveStats, len(s.drives))
	}
	out = out[:len(s.drives)]
	for i, d := range s.drives {
		depth := len(d.queue)
		if d.busy {
			depth++
		}
		out[i] = DriveStats{
			BusyMS:       d.busyMS,
			SeekMS:       d.seekMS,
			RotMS:        d.rotMS,
			TransferMS:   d.xferMS,
			Seeks:        d.seeks,
			BytesRead:    d.bytesRead,
			BytesWritten: d.bytesWrit,
			QueueLen:     depth,
		}
	}
	return out
}

// FailDrive marks one drive failed and runs the array in degraded mode —
// RAID-5 only: reads that would hit the failed drive are reconstructed by
// reading the same span from every surviving drive, and writes to it
// update parity alone (the data is implicit in the surviving row). Pass
// -1 to restore the drive.
func (s *System) FailDrive(i int) error {
	if i >= 0 && s.cfg.Layout != RAID5 {
		return fmt.Errorf("disk: degraded mode requires RAID5, not %v", s.cfg.Layout)
	}
	if i >= s.cfg.NDisks {
		return fmt.Errorf("disk: no drive %d in a %d-drive array", i, s.cfg.NDisks)
	}
	s.failed = i
	return nil
}

// degrade rewrites a segment list for a failed drive: reads become
// reconstruction fan-outs, writes to the failed drive are dropped (their
// parity counterparts, already in the list, absorb them). Replaced
// segments return to the free list.
func (s *System) degrade(segs []placed) []placed {
	out := segs[:0]
	var fanout []placed
	for _, sg := range segs {
		if sg.disk != s.failed {
			out = append(out, sg)
			continue
		}
		src := sg.seg
		if !src.write {
			for d := 0; d < s.cfg.NDisks; d++ {
				if d == s.failed {
					continue
				}
				fanout = append(fanout, placed{d, s.newSegment(src.start, src.n, false, 0)})
			}
		}
		s.releaseSegment(src)
	}
	out = append(out, fanout...)
	s.segScratch = out
	return out
}

// Submit enqueues a request. Done fires at the simulated completion time;
// a request with no runs completes immediately (synchronously). Submit
// consumes the Request during the call — neither it nor its run slice is
// retained, so callers may reuse both as soon as Submit returns.
func (s *System) Submit(req *Request) {
	for _, r := range req.Runs {
		if r.Len <= 0 || r.Start < 0 || r.Start+r.Len > s.Units() {
			panic(fmt.Sprintf("disk: run [%d,+%d) outside capacity %d units",
				r.Start, r.Len, s.Units()))
		}
	}
	payload := req.bytes(s.cfg.UnitBytes)
	segs := s.segments(req)
	if s.failed >= 0 {
		segs = s.degrade(segs)
	}
	if len(segs) == 0 {
		if !req.Internal {
			s.totalBytes += payload
			s.requests++
			s.mRequests.Inc()
			s.mBytes.Add(payload)
			s.mLatency.Observe(0)
		}
		if req.Done != nil {
			req.Done(s.eng.Now())
		}
		return
	}
	p := s.newPending(len(segs), payload, req.Done)
	p.fail = req.Fail
	p.internal = req.Internal
	p.submitMS = s.eng.Now()
	for _, sg := range segs {
		sg.seg.req = p
		s.enqueue(sg.disk, sg.seg)
	}
}

// placed pairs a segment with its target drive while a request is being
// decomposed.
type placed struct {
	disk int
	seg  *segment
}

// newSegment takes a segment from the free list, or allocates one. The
// completion path refills the list, so steady-state traffic cycles a small
// stable set of segments.
func (s *System) newSegment(start, n int64, write bool, extraRot int) *segment {
	if k := len(s.segFree); k > 0 {
		seg := s.segFree[k-1]
		s.segFree = s.segFree[:k-1]
		*seg = segment{start: start, n: n, write: write, extraRotations: extraRot}
		return seg
	}
	return &segment{start: start, n: n, write: write, extraRotations: extraRot}
}

// releaseSegment returns a segment to the free list.
func (s *System) releaseSegment(seg *segment) {
	seg.req = nil
	s.segFree = append(s.segFree, seg)
}

// newPending takes a completion record from the free list, or allocates.
func (s *System) newPending(remaining int, payload int64, done func(now float64)) *pending {
	if k := len(s.pendFree); k > 0 {
		p := s.pendFree[k-1]
		s.pendFree = s.pendFree[:k-1]
		*p = pending{remaining: remaining, payload: payload, done: done}
		return p
	}
	return &pending{remaining: remaining, payload: payload, done: done}
}

// releasePending returns a completion record to the free list.
func (s *System) releasePending(p *pending) {
	p.done = nil
	p.fail = nil
	s.pendFree = append(s.pendFree, p)
}

// segments decomposes a request into per-drive segments according to the
// layout, merging adjacent pieces that land contiguously on one drive.
// The result aliases the per-Submit scratch buffer.
func (s *System) segments(req *Request) []placed {
	s.segScratch = s.segScratch[:0]
	// lastSeg tracks each drive's most recent segment so round-robin
	// pieces that land byte-contiguously on one drive (successive stripe
	// rows of the same column) merge into a single long transfer.
	for i := range s.lastSeg {
		s.lastSeg[i] = -1
	}
	for _, run := range req.Runs {
		b0 := run.Start * s.cfg.UnitBytes
		b1 := b0 + run.Len*s.cfg.UnitBytes
		switch s.cfg.Layout {
		case Striped:
			s.placeStriped(b0, b1, req.Write)
		case Mirrored:
			s.placeMirrored(b0, b1, req.Write)
		case RAID5:
			s.placeRAID5(b0, b1, req.Write)
		case ParityStriped:
			s.placeParityStriped(b0, b1, req.Write)
		}
	}
	return s.segScratch
}

// addSeg appends one placed piece to the in-progress decomposition,
// merging it into the drive's previous segment when byte-contiguous.
func (s *System) addSeg(disk int, start, n int64, write bool, extraRot int) {
	if n <= 0 {
		return
	}
	if i := s.lastSeg[disk]; i >= 0 {
		p := s.segScratch[i]
		if p.seg.write == write && p.seg.extraRotations == extraRot &&
			p.seg.start+p.seg.n == start {
			p.seg.n += n
			return
		}
	}
	s.segScratch = append(s.segScratch, placed{disk, s.newSegment(start, n, write, extraRot)})
	s.lastSeg[disk] = int32(len(s.segScratch) - 1)
}

// placeStriped maps logical bytes [b0,b1) round-robin across all drives.
// Pieces of one run that land on the same drive are byte-contiguous there
// (successive rows of the same column), so merging recovers one long
// segment per drive.
func (s *System) placeStriped(b0, b1 int64, write bool) {
	su := s.cfg.StripeUnitBytes
	n := int64(s.cfg.NDisks)
	for b := b0; b < b1; {
		idx := b / su
		off := b % su
		chunk := su - off
		if chunk > b1-b {
			chunk = b1 - b
		}
		disk := int(idx % n)
		local := (idx/n)*su + off
		s.addSeg(disk, local, chunk, write, 0)
		b += chunk
	}
}

// placeMirrored stripes across drive pairs. Reads go to the replica with
// the shorter queue (primary on ties); writes go to both replicas.
func (s *System) placeMirrored(b0, b1 int64, write bool) {
	su := s.cfg.StripeUnitBytes
	pairs := int64(s.cfg.NDisks / 2)
	for b := b0; b < b1; {
		idx := b / su
		off := b % su
		chunk := su - off
		if chunk > b1-b {
			chunk = b1 - b
		}
		pair := int(idx % pairs)
		local := (idx/pairs)*su + off
		primary, secondary := 2*pair, 2*pair+1
		if write {
			s.addSeg(primary, local, chunk, true, 0)
			s.addSeg(secondary, local, chunk, true, 0)
		} else {
			disk := primary
			if s.queueDepth(secondary) < s.queueDepth(primary) {
				disk = secondary
			}
			s.addSeg(disk, local, chunk, false, 0)
		}
		b += chunk
	}
}

// placeRAID5 maps logical stripe units across N-1 data columns per row with
// the parity column rotating by row. Small writes pay a read-modify-write
// rotation on both the data and parity drives; a fully covered row is a
// full-stripe write and pays only the parity write.
func (s *System) placeRAID5(b0, b1 int64, write bool) {
	su := s.cfg.StripeUnitBytes
	n := int64(s.cfg.NDisks)
	dataCols := n - 1
	rowBytes := su * dataCols
	for b := b0; b < b1; {
		row := b / rowBytes
		inRow := b % rowBytes
		chunk := rowBytes - inRow
		if chunk > b1-b {
			chunk = b1 - b
		}
		parityDisk := int(row % n)
		fullStripe := write && inRow == 0 && chunk == rowBytes
		extra := 0
		if write && !fullStripe {
			extra = 1
		}
		// Data pieces within this row.
		for p := inRow; p < inRow+chunk; {
			col := p / su
			off := p % su
			piece := su - off
			if piece > inRow+chunk-p {
				piece = inRow + chunk - p
			}
			disk := int(col)
			if disk >= parityDisk {
				disk++
			}
			s.addSeg(disk, row*su+off, piece, write, extra)
			p += piece
		}
		if write {
			// Parity covers the written byte span within the stripe unit.
			off := inRow % su
			span := chunk
			if span > su-off {
				// Multiple columns written: parity unit is touched across
				// the union of their offsets; the whole unit is updated.
				off, span = 0, su
			}
			s.addSeg(parityDisk, row*su+off, span, true, extra)
		}
		b += chunk
	}
}

// placeParityStriped concatenates the drives' data regions: files live on
// single drives [GRAY90]. Writes pay read-modify-write plus a parity
// update on a rotating partner drive's parity region.
func (s *System) placeParityStriped(b0, b1 int64, write bool) {
	su := s.cfg.StripeUnitBytes
	n := s.cfg.NDisks
	parityBytes := s.cfg.minCapacity() - s.perDiskData
	for b := b0; b < b1; {
		disk := int(b / s.perDiskData)
		local := b % s.perDiskData
		chunk := s.perDiskData - local
		if chunk > b1-b {
			chunk = b1 - b
		}
		// Keep parity bookkeeping per stripe unit.
		if rem := su - local%su; chunk > rem {
			chunk = rem
		}
		extra := 0
		if write {
			extra = 1
		}
		s.addSeg(disk, local, chunk, write, extra)
		if write && parityBytes > 0 {
			row := local / su
			pdisk := int((int64(disk) + 1 + row%int64(n-1)) % int64(n))
			poff := s.perDiskData + (row*su)%parityBytes
			span := chunk
			if cap := s.cfg.geometryOf(pdisk).Capacity(); poff+span > cap {
				span = cap - poff
			}
			s.addSeg(pdisk, poff, span, true, extra)
		}
		b += chunk
	}
}

func (s *System) queueDepth(disk int) int {
	d := s.drives[disk]
	depth := len(d.queue)
	if d.busy {
		depth++
	}
	return depth
}

// enqueue appends a segment to a drive's queue, starting it immediately
// if the drive is idle.
func (s *System) enqueue(disk int, seg *segment) {
	seg.enqueueMS = s.eng.Now()
	d := s.drives[disk]
	if d.busy {
		d.queue = append(d.queue, seg)
		return
	}
	s.start(d, seg)
}

// next pops the drive's next segment under the configured discipline.
func (s *System) next(d *drive) *segment {
	idx := 0
	switch {
	case s.cfg.Scheduler == SSTF && len(d.queue) > 1:
		best := -1
		for i, seg := range d.queue {
			cyl, _, _ := d.geom.locate(seg.start)
			dist := cyl - d.headCyl
			if dist < 0 {
				dist = -dist
			}
			if best < 0 || dist < best {
				best, idx = dist, i
			}
		}
	case s.cfg.Scheduler == SCAN && len(d.queue) > 1:
		idx = s.scanPick(d)
	}
	seg := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	return seg
}

// scanPick implements the LOOK elevator: the nearest segment at or beyond
// the head in the sweep direction; if none, reverse and pick the nearest
// the other way.
func (s *System) scanPick(d *drive) int {
	pick := func(up bool) (int, bool) {
		best, idx := -1, -1
		for i, seg := range d.queue {
			cyl, _, _ := d.geom.locate(seg.start)
			dist := cyl - d.headCyl
			if !up {
				dist = -dist
			}
			if dist < 0 {
				continue
			}
			if best < 0 || dist < best {
				best, idx = dist, i
			}
		}
		return idx, idx >= 0
	}
	if idx, ok := pick(d.sweepUp); ok {
		return idx
	}
	d.sweepUp = !d.sweepUp
	if idx, ok := pick(d.sweepUp); ok {
		return idx
	}
	return 0
}

func (s *System) start(d *drive, seg *segment) {
	d.busy = true
	d.cur = seg
	now := s.eng.Now()
	svc := d.serviceMS(now, seg)
	s.mSegments.Inc()
	s.mQueueWait.Observe(now - seg.enqueueMS)
	if s.spanTrace != nil {
		s.spanTrace(Span{
			Disk:      d.id,
			Start:     seg.start,
			N:         seg.n,
			Write:     seg.write,
			EnqueueMS: seg.enqueueMS,
			StartMS:   now,
			WaitMS:    now - seg.enqueueMS,
			SeekMS:    d.lastBD.seekMS,
			RotMS:     d.lastBD.rotMS,
			XferMS:    d.lastBD.xferMS,
			ServiceMS: svc,
		})
	}
	s.eng.After(svc, d.onDone)
}

// complete finishes the drive's in-flight segment: credit the request
// (firing its Done when this was the last segment), recycle the segment
// and completion record, then start the drive's next queued segment. The
// Done callback runs before the next segment is picked, exactly as the
// per-service closure used to do — it may submit new requests that join
// this drive's queue in time to be scheduled.
func (s *System) complete(d *drive, now float64) {
	seg := d.cur
	d.cur = nil
	p := seg.req
	if s.flt != nil {
		// The fault paths: a segment serviced by a drive that failed
		// mid-service poisons its request, and a foreground segment draws
		// a transient-error outcome from the dedicated fault RNG. Rebuild
		// I/O (internal) is assumed verified and never glitches.
		if seg.diskFailed {
			p.failed = true
		} else if !p.internal && s.flt.cfg.TransientProb > 0 &&
			s.flt.cfg.RNG.Float64() < s.flt.cfg.TransientProb {
			p.failed = true
			s.flt.transientErrors++
			s.mTransient.Inc()
		}
	}
	s.releaseSegment(seg)
	s.segmentDone(p, now)
	if len(d.queue) > 0 {
		s.start(d, s.next(d))
	} else {
		d.busy = false
	}
}

// segmentDone retires one of a pending request's segments, completing the
// request when it was the last: internal (rebuild) requests just fire
// their continuation, failed requests fire the fail path and credit
// nothing, healthy requests credit throughput and latency as always.
func (s *System) segmentDone(p *pending, now float64) {
	p.remaining--
	if p.remaining != 0 {
		return
	}
	if p.internal {
		done := p.done
		s.releasePending(p)
		if done != nil {
			done(now)
		}
		return
	}
	if p.failed {
		fail, done := p.fail, p.done
		s.releasePending(p)
		switch {
		case fail != nil:
			fail(now)
		case done != nil:
			done(now)
		}
		return
	}
	s.totalBytes += p.payload
	s.requests++
	s.mRequests.Inc()
	s.mBytes.Add(p.payload)
	s.mLatency.Observe(now - p.submitMS)
	done := p.done
	s.releasePending(p)
	if done != nil {
		done(now)
	}
}
