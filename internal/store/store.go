// Package store is a crash-safe, disk-backed result store: an append-only
// sequence of log segments holding gzipped payloads keyed by arbitrary
// strings (the runner uses Spec cache keys), with per-record CRC32-C
// checksums, an in-memory index rebuilt by scanning the segments on open,
// LRU eviction against a byte budget, and background merge compaction
// that rewrites live records and drops evicted or superseded ones
// (a simplified form of the merge policies in Mathieu et al., "Bigtable
// Merge Compaction").
//
// Crash safety is structural: records are appended and fsynced, never
// updated in place, so the only damage a crash can leave is a truncated
// or torn tail. Open detects it by checksum, copies the damaged bytes to
// a .quarantined sidecar, truncates the segment back to its last good
// record, and keeps serving everything before the tear.
//
// Open checks every record's checksum and decompresses none, so it costs
// one read and one checksum per stored byte. Get checks its record again
// before it decompresses, so no payload is served unchecked; one that
// passes its checksum yet does not inflate is a miss. Compaction checks
// each record before it copies it and drops one damaged since Open.
package store

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Options tunes a Store. The zero value is usable: unbounded budget,
// 4 MiB segments, fsync on every put, compaction enabled.
type Options struct {
	// MaxBytes is the live-record byte budget; once exceeded the least
	// recently used entries are evicted until the store fits. Zero or
	// negative means unbounded.
	MaxBytes int64
	// SegmentBytes is the rotation threshold for the active segment
	// (default 4 MiB). Smaller segments compact at finer grain.
	SegmentBytes int64
	// NoSync skips the per-put fsync. Tests and throwaway caches only:
	// a crash may then lose acknowledged puts (never corrupt the store).
	NoSync bool
	// NoCompact disables the background compaction goroutine, leaving
	// dead bytes in place until the next Open (tests use this to inspect
	// segment layouts deterministically).
	NoCompact bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SegmentBytes < recordHeaderSize+1 {
		o.SegmentBytes = recordHeaderSize + 1
	}
	return o
}

// Stats is a point-in-time snapshot of the store's state and lifetime
// activity.
type Stats struct {
	// Records and Segments describe the live index; LiveBytes counts the
	// on-disk footprint of indexed records, DeadBytes the footprint of
	// superseded and evicted ones awaiting compaction.
	Records, Segments    int64
	LiveBytes, DeadBytes int64
	// Lifetime counters.
	Hits, Misses, Puts   int64
	Evictions            int64
	Compactions          int64
	Quarantined          int64 // damaged tails quarantined by Open
	GetErrors, PutErrors int64 // failed reads (a Get's or a compaction's), failed writes
}

// entry locates one live record.
type entry struct {
	key  string
	seg  int
	off  int64
	size int64 // full record footprint on disk
	elem *list.Element
}

// segment is one log file's bookkeeping.
type segment struct {
	id   int
	f    *os.File
	size int64
	live int64 // bytes of records still in the index
}

// Store is the disk-backed key→payload store. All methods are safe for
// concurrent use; one mutex serializes index and file access (the store
// sits behind a result cache, so its operation rate is low and bounded
// by simulation cost, not request rate).
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	index     map[string]*entry
	lru       *list.List // front = most recently used
	segs      map[int]*segment
	active    *segment
	nextSeg   int
	liveBytes int64
	deadBytes int64
	stats     Stats

	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	closed    bool
}

// Open scans dir's segments, rebuilds the index (later records supersede
// earlier ones), quarantines damaged tails, enforces the byte budget,
// and starts the compaction goroutine. The directory is created if
// missing.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		index:     make(map[string]*entry),
		lru:       list.New(),
		segs:      make(map[int]*segment),
		compactCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	if err := s.scanDir(); err != nil {
		s.closeFiles()
		return nil, err
	}
	// Enforce the budget against whatever the scan found: a shrunken
	// -store-max-bytes (or a store grown by a crash-interrupted
	// compaction) trims here, oldest-scanned first.
	s.evictOverBudgetLocked()
	if !opts.NoCompact {
		s.wg.Add(1)
		go s.compactLoop()
		s.kickCompactLocked()
	}
	return s, nil
}

// Get returns the payload stored under key. IO or integrity errors on a
// hit degrade to a miss (the caller recomputes) after dropping the bad
// entry and counting a GetError.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	e, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	payload, err := s.readRecord(e)
	if err != nil {
		s.stats.GetErrors++
		s.stats.Misses++
		s.dropLocked(e)
		s.kickCompactLocked()
		return nil, false
	}
	s.stats.Hits++
	s.lru.MoveToFront(e.elem)
	return payload, true
}

// Put stores payload under key, superseding any previous record. The
// record is fsynced before Put returns (unless Options.NoSync).
func (s *Store) Put(key string, payload []byte) error {
	rec, err := encodeRecord(key, payload)
	if err != nil {
		s.mu.Lock()
		s.stats.PutErrors++
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if err := s.appendLocked(key, rec); err != nil {
		s.stats.PutErrors++
		return err
	}
	s.stats.Puts++
	s.evictOverBudgetLocked()
	s.kickCompactLocked()
	return nil
}

// appendLocked writes one encoded record to the active segment (rotating
// first if it would overflow) and indexes it.
func (s *Store) appendLocked(key string, rec []byte) error {
	if s.active == nil || s.active.size+int64(len(rec)) > s.opts.SegmentBytes && s.active.size > 0 {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	seg := s.active
	if _, err := seg.f.WriteAt(rec, seg.size); err != nil {
		return fmt.Errorf("store: append %s: %w", seg.f.Name(), err)
	}
	if !s.opts.NoSync {
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("store: sync %s: %w", seg.f.Name(), err)
		}
	}
	if old, ok := s.index[key]; ok {
		s.dropLocked(old)
	}
	e := &entry{key: key, seg: seg.id, off: seg.size, size: int64(len(rec))}
	e.elem = s.lru.PushFront(e)
	s.index[key] = e
	seg.size += int64(len(rec))
	seg.live += int64(len(rec))
	s.liveBytes += int64(len(rec))
	return nil
}

// rotateLocked seals the active segment and opens a fresh one.
func (s *Store) rotateLocked() error {
	id := s.nextSeg
	s.nextSeg++
	path := filepath.Join(s.dir, segName(id))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segs[id] = &segment{id: id, f: f}
	s.active = s.segs[id]
	if !s.opts.NoSync {
		syncDir(s.dir)
	}
	return nil
}

// dropLocked removes e from the index, moving its bytes to the dead set.
func (s *Store) dropLocked(e *entry) {
	delete(s.index, e.key)
	s.lru.Remove(e.elem)
	s.liveBytes -= e.size
	s.deadBytes += e.size
	if seg, ok := s.segs[e.seg]; ok {
		seg.live -= e.size
	}
}

// evictOverBudgetLocked trims least-recently-used entries until the live
// footprint fits MaxBytes. The most recent entry always survives, so a
// single oversized record does not evict itself on arrival.
func (s *Store) evictOverBudgetLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.liveBytes > s.opts.MaxBytes && s.lru.Len() > 1 {
		e := s.lru.Back().Value.(*entry)
		s.dropLocked(e)
		s.stats.Evictions++
	}
}

// Stats returns a snapshot of the store's counters and sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = int64(len(s.index))
	st.Segments = int64(len(s.segs))
	st.LiveBytes = s.liveBytes
	st.DeadBytes = s.deadBytes
	return st
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close stops compaction, syncs, and closes every segment. The store is
// unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeFiles()
}

func (s *Store) closeFiles() error {
	var first error
	for _, seg := range s.segs {
		if seg.f == nil {
			continue
		}
		if !s.opts.NoSync {
			if err := seg.f.Sync(); err != nil && first == nil {
				first = err
			}
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
		seg.f = nil
	}
	return first
}

// segName renders segment id's file name; the zero-padded id keeps
// lexical and numeric order identical.
func segName(id int) string { return fmt.Sprintf("seg-%08d.log", id) }

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// scanDir rebuilds the index from the segments on disk, in segment order
// so later records supersede earlier ones, then reopens the highest
// segment for appending (or creates the first one).
func (s *Store) scanDir() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.log"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var ids []int
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.log", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var buf []byte
	for _, id := range ids {
		if buf, err = s.scanSegment(id, buf); err != nil {
			return err
		}
		s.nextSeg = id + 1
	}
	// Append into the last segment if it has room, else start fresh.
	if n := len(ids); n > 0 {
		last := s.segs[ids[n-1]]
		if last.size < s.opts.SegmentBytes {
			s.active = last
		}
	}
	if s.active == nil {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}
