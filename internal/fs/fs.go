// Package fs is the file-system layer of the simulator: it binds an
// allocation policy to a disk system, presents files with byte-granular
// read / write / extend / truncate / delete operations, maps logical file
// offsets through the policy's extent lists to disk-unit runs, and keeps
// the space accounting (used vs. allocated bytes) that the fragmentation
// metrics of §3 are computed from.
//
// Operations that move data are asynchronous: they complete through a
// callback at the simulated completion time. A FileSystem built without a
// disk system (allocation tests, §3) completes every operation
// immediately — allocation tests measure space, not time.
package fs

import (
	"fmt"

	"rofs/internal/alloc"
	"rofs/internal/disk"
	"rofs/internal/metrics"
	"rofs/internal/units"
)

// FileSystem binds a policy to an optional disk system.
type FileSystem struct {
	policy    alloc.Policy
	dsys      *disk.System // nil for allocation-only tests
	unitBytes int64

	// files is the file table, indexed by id: ids are dense from 0 and
	// never reused, a deleted file's slot is nil, and live counts the
	// non-nil slots.
	files     []*File
	live      int
	usedBytes int64 // sum of file lengths

	// runScratch and req are the reusable buffers behind every data
	// operation: the disk system consumes a request's runs synchronously
	// during Submit and retains neither the slice nor the Request, and
	// simulations are single-goroutine, so one buffer per file system
	// makes the per-request offset-to-run mapping allocation-free.
	runScratch []disk.Run
	req        disk.Request

	// retry is the armed retry machinery (retry.go), nil on a file system
	// that never retries — the allocation-free fast path.
	retry *retryState

	// Metrics handles (nil when metrics are disabled; see SetMetrics).
	mCreates    *metrics.Counter
	mDeletes    *metrics.Counter
	mGrows      *metrics.Counter
	mTruncates  *metrics.Counter
	mRunLen     *metrics.Hist
	mRetries    *metrics.Counter
	mPermanent  *metrics.Counter
	mRetryDelay *metrics.Hist
}

// runLenBoundsUnits buckets the run lengths data operations touch, in disk
// units: with 1K units the bounds span 1K single-unit transfers up through
// 16M fully contiguous sweeps.
var runLenBoundsUnits = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384,
}

// SetMetrics attaches metrics handles to the file system. A nil registry
// (the default) leaves all handles nil, and every instrumentation point
// reduces to a nil check.
func (fs *FileSystem) SetMetrics(reg *metrics.Registry) {
	fs.mCreates = reg.Counter("fs.creates")
	fs.mDeletes = reg.Counter("fs.deletes")
	fs.mGrows = reg.Counter("fs.grows")
	fs.mTruncates = reg.Counter("fs.truncates")
	fs.mRunLen = reg.Histogram("fs.run_len_units", runLenBoundsUnits)
	fs.mRetries = reg.Counter("fs.retries")
	fs.mPermanent = reg.Counter("fs.permanent_errors")
	fs.mRetryDelay = reg.Histogram("fs.retry_delay_ms", retryDelayBoundsMS)
}

// New creates a file system. dsys may be nil; unitBytes must match the
// disk system's unit size when one is supplied.
func New(policy alloc.Policy, dsys *disk.System, unitBytes int64) (*FileSystem, error) {
	if policy == nil {
		return nil, fmt.Errorf("fs: nil policy")
	}
	if unitBytes <= 0 {
		return nil, fmt.Errorf("fs: unitBytes %d must be positive", unitBytes)
	}
	if dsys != nil {
		if dsys.UnitBytes() != unitBytes {
			return nil, fmt.Errorf("fs: unitBytes %d != disk unit %d", unitBytes, dsys.UnitBytes())
		}
		if policy.TotalUnits() > dsys.Units() {
			return nil, fmt.Errorf("fs: policy manages %d units but disk has %d",
				policy.TotalUnits(), dsys.Units())
		}
	}
	return &FileSystem{
		policy:    policy,
		dsys:      dsys,
		unitBytes: unitBytes,
	}, nil
}

// Policy returns the allocation policy.
func (fs *FileSystem) Policy() alloc.Policy { return fs.policy }

// UnitBytes returns the disk-unit size in bytes.
func (fs *FileSystem) UnitBytes() int64 { return fs.unitBytes }

// CapacityBytes returns the policy-managed capacity in bytes.
func (fs *FileSystem) CapacityBytes() int64 {
	return fs.policy.TotalUnits() * fs.unitBytes
}

// AllocatedBytes returns the space currently allocated to files.
func (fs *FileSystem) AllocatedBytes() int64 {
	return (fs.policy.TotalUnits() - fs.policy.FreeUnits()) * fs.unitBytes
}

// UsedBytes returns the sum of file lengths.
func (fs *FileSystem) UsedBytes() int64 { return fs.usedBytes }

// Utilization returns allocated/capacity in [0,1] — the quantity the
// paper's N/M utilization bounds constrain (§2.2).
func (fs *FileSystem) Utilization() float64 {
	return float64(fs.AllocatedBytes()) / float64(fs.CapacityBytes())
}

// InternalFragPct returns allocated-but-unused space as a percentage of
// allocated space (§3).
func (fs *FileSystem) InternalFragPct() float64 {
	allocated := fs.AllocatedBytes()
	if allocated == 0 {
		return 0
	}
	return 100 * float64(allocated-fs.usedBytes) / float64(allocated)
}

// ExternalFragPct returns free space as a percentage of total space —
// meaningful at the moment an allocation request fails (§3).
func (fs *FileSystem) ExternalFragPct() float64 {
	return 100 * float64(fs.policy.FreeUnits()) / float64(fs.policy.TotalUnits())
}

// Files returns the number of live files.
func (fs *FileSystem) Files() int { return fs.live }

// File is an open file: a length in bytes plus the policy's allocation
// handle.
type File struct {
	fs       *FileSystem
	id       int64
	fa       alloc.File
	length   int64 // bytes used
	sizeHint int64 // AllocationSize in units, for recreation after delete
	cursor   int64 // sequential access position (maintained by callers)
}

// Create makes an empty file. sizeHintBytes is the file type's
// AllocationSize parameter (Table 2), which the extent policy uses to
// choose the file's extent-size range.
func (fs *FileSystem) Create(sizeHintBytes int64) *File {
	hintUnits := units.CeilDiv(sizeHintBytes, fs.unitBytes)
	f := &File{
		fs:       fs,
		id:       int64(len(fs.files)),
		fa:       fs.policy.NewFile(hintUnits),
		sizeHint: hintUnits,
	}
	fs.files = append(fs.files, f)
	fs.live++
	fs.mCreates.Inc()
	return f
}

// Length returns the file's length in bytes.
func (f *File) Length() int64 { return f.length }

// AllocatedBytes returns the file's allocated space in bytes.
func (f *File) AllocatedBytes() int64 {
	return f.fa.AllocatedUnits() * f.fs.unitBytes
}

// Alloc exposes the policy's allocation handle (for policy-specific
// metrics such as Table 4's extents per file).
func (f *File) Alloc() alloc.File { return f.fa }

// Cursor returns the sequential-access cursor.
func (f *File) Cursor() int64 { return f.cursor }

// SetCursor stores the sequential-access cursor.
func (f *File) SetCursor(c int64) { f.cursor = c }

// runs maps the byte range [off, off+n) of the file to disk-unit runs by
// walking the extent list. The range must lie within the file's length.
// The returned slice aliases the file system's scratch buffer and is only
// valid until the next data operation.
func (f *File) runs(off, n int64) []disk.Run {
	if n <= 0 {
		return nil
	}
	if off < 0 || off+n > f.length {
		panic(fmt.Sprintf("fs: range [%d,+%d) outside file length %d", off, n, f.length))
	}
	ub := f.fs.unitBytes
	startUnit := off / ub
	endUnit := units.CeilDiv(off+n, ub)
	out := f.fs.runScratch[:0]
	var pos int64 // logical unit position at the start of the current extent
	for _, e := range f.fa.Extents() {
		if pos >= endUnit {
			break
		}
		lo, hi := pos, pos+e.Len
		if hi <= startUnit {
			pos = hi
			continue
		}
		s, t := startUnit, endUnit
		if lo > s {
			s = lo
		}
		if hi < t {
			t = hi
		}
		if t > s {
			run := disk.Run{Start: e.Start + (s - lo), Len: t - s}
			if last := len(out) - 1; last >= 0 && out[last].Start+out[last].Len == run.Start {
				out[last].Len += run.Len
			} else {
				out = append(out, run)
			}
		}
		pos = hi
	}
	f.fs.runScratch = out
	return out
}

// submit sends runs to the disk system and invokes done when the request
// finishes, or at once (with time 0) when no disk is attached or there is
// nothing to transfer.
func (f *File) submit(runs []disk.Run, write bool, done func(now float64)) {
	if f.fs.dsys == nil || len(runs) == 0 {
		if done != nil {
			done(0)
		}
		return
	}
	if f.fs.mRunLen != nil {
		for _, r := range runs {
			f.fs.mRunLen.Observe(float64(r.Len))
		}
	}
	// With retries armed the runs must outlive this call (a failed
	// request is resent after the scratch buffer has been reused), so the
	// submission goes through a retry record holding its own copy.
	if f.fs.retry != nil {
		op := f.fs.newRetryOp(runs, write, done)
		op.send()
		return
	}
	// Submit consumes the request before invoking any completion, so the
	// shared Request (and the runs scratch it points at) is free for
	// reuse — including by operations issued from inside done — the
	// moment Submit returns or calls back.
	req := &f.fs.req
	req.Runs, req.Write, req.Done = runs, write, done
	f.fs.dsys.Submit(req)
	req.Runs, req.Done = nil, nil
}

// Read reads n bytes at off, clipped to the file. done receives the
// simulated completion time.
func (f *File) Read(off, n int64, done func(now float64)) {
	off, n = f.clip(off, n)
	f.submit(f.runs(off, n), false, done)
}

// Write overwrites n bytes at off, clipped to the file (in-place update;
// writes never extend — extension is the Extend operation).
func (f *File) Write(off, n int64, done func(now float64)) {
	off, n = f.clip(off, n)
	f.submit(f.runs(off, n), true, done)
}

// clip bounds [off, off+n) to the file's current length.
func (f *File) clip(off, n int64) (int64, int64) {
	if off < 0 {
		off = 0
	}
	if off > f.length {
		off = f.length
	}
	if off+n > f.length {
		n = f.length - off
	}
	return off, n
}

// Extend grows the file by n bytes — allocating if the new length exceeds
// the allocation — and writes the new bytes. It returns alloc.ErrNoSpace
// (before any disk traffic) when the policy cannot satisfy the growth.
func (f *File) Extend(n int64, done func(now float64)) error {
	if n <= 0 {
		if done != nil {
			done(0)
		}
		return nil
	}
	newLen := f.length + n
	if needBytes := newLen - f.AllocatedBytes(); needBytes > 0 {
		needUnits := units.CeilDiv(needBytes, f.fs.unitBytes)
		if _, err := f.fa.Grow(needUnits); err != nil {
			return err
		}
		f.fs.mGrows.Inc()
	}
	off := f.length
	f.length = newLen
	f.fs.usedBytes += n
	f.submit(f.runs(off, n), true, done)
	return nil
}

// Allocate grows the file's length by n bytes without disk traffic — used
// by initialization ("the files are created", §2.2) and fill phases.
func (f *File) Allocate(n int64) error {
	if n <= 0 {
		return nil
	}
	newLen := f.length + n
	if needBytes := newLen - f.AllocatedBytes(); needBytes > 0 {
		needUnits := units.CeilDiv(needBytes, f.fs.unitBytes)
		if _, err := f.fa.Grow(needUnits); err != nil {
			return err
		}
		f.fs.mGrows.Inc()
	}
	f.fs.usedBytes += n
	f.length = newLen
	return nil
}

// Truncate removes the last n bytes (clipped at zero length), releasing
// whatever whole allocation granules the policy can free. No disk traffic.
func (f *File) Truncate(n int64) {
	if n <= 0 {
		return
	}
	if n > f.length {
		n = f.length
	}
	f.length -= n
	f.fs.usedBytes -= n
	f.fa.TruncateTo(units.CeilDiv(f.length, f.fs.unitBytes))
	f.fs.mTruncates.Inc()
	if f.cursor > f.length {
		f.cursor = 0
	}
}

// Delete frees the file's space and removes it from the file table.
func (f *File) Delete() {
	f.fs.usedBytes -= f.length
	f.length = 0
	f.cursor = 0
	f.fa.TruncateTo(0)
	if f.fs.files[f.id] != nil {
		f.fs.files[f.id] = nil
		f.fs.live--
	}
	f.fs.mDeletes.Inc()
}

// Recreate frees the file's space and gives it a fresh, empty allocation
// handle — the paper's small files are "periodically deleted and
// recreated" (§2.2), keeping the population constant. The file keeps its
// id and its slot in the file table.
func (f *File) Recreate() {
	f.fs.usedBytes -= f.length
	f.length = 0
	f.cursor = 0
	f.fa.TruncateTo(0)
	f.fa = f.fs.policy.NewFile(f.sizeHint)
	f.fs.mDeletes.Inc()
	f.fs.mCreates.Inc()
}

// ReadChunked reads [off, off+n) as a pipeline of chunk-sized requests,
// each issued when the previous completes — the read-ahead streaming that
// keeps whole-file transfers (the sequential test of §3) flowing without
// one monolithic request. done fires when the last chunk completes.
func (f *File) ReadChunked(off, n, chunkBytes int64, done func(now float64)) {
	f.chunked(off, n, chunkBytes, false, done)
}

// WriteChunked is the write-behind counterpart of ReadChunked.
func (f *File) WriteChunked(off, n, chunkBytes int64, done func(now float64)) {
	f.chunked(off, n, chunkBytes, true, done)
}

func (f *File) chunked(off, n, chunkBytes int64, write bool, done func(now float64)) {
	if chunkBytes <= 0 {
		panic("fs: non-positive chunk size")
	}
	off, n = f.clip(off, n)
	if n == 0 || f.fs.dsys == nil {
		if done != nil {
			done(0)
		}
		return
	}
	var issue func(pos int64, now float64)
	issue = func(pos int64, _ float64) {
		chunk := chunkBytes
		if pos+chunk > off+n {
			chunk = off + n - pos
		}
		next := done
		if pos+chunk < off+n {
			nextPos := pos + chunk
			next = func(now float64) { issue(nextPos, now) }
		}
		f.submit(f.runs(pos, chunk), write, next)
	}
	issue(off, 0)
}
