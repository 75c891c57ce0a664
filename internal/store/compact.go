package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Compaction policy, after the merge-compaction framing of Mathieu et
// al.: the log is a sequence of sorted-by-time segments; periodically a
// set of victims is merged into the head of the log, paying write work
// now to reclaim dead space. We use the simplest profitable policy —
// trigger when at least half the store's footprint is dead (and above a
// small floor, so tiny stores never churn), pick every sealed segment
// whose own dead ratio clears a quarter, check each of its live records
// and copy it verbatim to the active segment, and delete it. Record
// bytes never change, so checksums survive the copy and a crash
// mid-compaction at worst leaves both copies (the scan's supersede rule
// keeps the newer one). A record that fails its check is dropped, not
// copied.

// compactMinDeadBytes is the floor below which compaction never runs.
const compactMinDeadBytes = 64 << 10

// kickCompactLocked nudges the compaction goroutine when the dead ratio
// warrants a pass. Caller holds s.mu.
func (s *Store) kickCompactLocked() {
	if s.opts.NoCompact || s.closed {
		return
	}
	if s.deadBytes < compactMinDeadBytes || s.deadBytes < s.liveBytes {
		return
	}
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

// compactLoop is the background goroutine: wait for a kick, run one
// compaction pass, repeat until Close.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.compactCh:
			s.Compact()
		}
	}
}

// Compact runs one merge-compaction pass synchronously (the background
// goroutine calls it on demand; tests call it directly). It returns the
// number of segments reclaimed.
func (s *Store) Compact() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	victims := s.pickVictimsLocked()
	if len(victims) == 0 {
		return 0
	}
	reclaimed := 0
	for _, seg := range victims {
		if err := s.mergeSegmentLocked(seg); err != nil {
			// A failed merge leaves the victim intact and indexed; stop the
			// pass and let a later kick retry.
			s.stats.PutErrors++
			break
		}
		reclaimed++
	}
	if reclaimed > 0 {
		s.stats.Compactions++
		if !s.opts.NoSync {
			if s.active != nil && s.active.f != nil {
				s.active.f.Sync()
			}
			syncDir(s.dir)
		}
	}
	return reclaimed
}

// pickVictimsLocked selects the sealed segments worth merging: fully
// dead ones always, partially dead ones once a quarter of their bytes
// are dead. Ordered by id so merged records keep their relative age.
func (s *Store) pickVictimsLocked() []*segment {
	var victims []*segment
	for id, seg := range s.segs {
		if seg == s.active || seg.f == nil {
			continue
		}
		dead := seg.size - seg.live
		if seg.size > 0 && (seg.live == 0 || dead*4 >= seg.size) {
			victims = append(victims, s.segs[id])
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	return victims
}

// mergeSegmentLocked copies seg's live records to the active segment,
// repoints their index entries, and deletes seg.
func (s *Store) mergeSegmentLocked(seg *segment) error {
	// Collect seg's live entries in file order so the copy preserves
	// their relative ages.
	var live []*entry
	for _, e := range s.index {
		if e.seg == seg.id {
			live = append(live, e)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].off < live[j].off })
	dead := seg.size - seg.live // the store-level dead bytes this merge reclaims
	for _, e := range live {
		rec, err := readChecked(seg.f, e)
		if errors.Is(err, errCorrupt) {
			// Damaged since Open. Copied, it would sit in the active
			// segment until the next Open quarantined it together with
			// every record appended after it; dropped, it costs only
			// itself. It counts as the GetError a Get would have found.
			s.dropLocked(e)
			s.stats.GetErrors++
			dead += e.size
			continue
		}
		if err != nil {
			return err
		}
		dst, off, err := s.copyRecordLocked(seg, rec)
		if err != nil {
			return err
		}
		seg.live -= e.size
		e.seg, e.off = dst.id, off
		dst.live += e.size
		dst.size += e.size
	}
	// The file now holds only dead bytes (the originals of the moved
	// records plus the previously dead ones); only the latter were in the
	// store-level dead count, so that is what removal reclaims.
	s.deadBytes -= dead
	seg.f.Close()
	seg.f = nil
	delete(s.segs, seg.id)
	if err := os.Remove(filepath.Join(s.dir, segName(seg.id))); err != nil {
		return fmt.Errorf("store: compact remove: %w", err)
	}
	return nil
}

// copyRecordLocked appends one verbatim record to the active segment
// (rotating when full, and never into the segment being merged) and
// returns its new location.
func (s *Store) copyRecordLocked(merging *segment, rec []byte) (*segment, int64, error) {
	if s.active == nil || s.active == merging ||
		(s.active.size > 0 && s.active.size+int64(len(rec)) > s.opts.SegmentBytes) {
		if err := s.rotateLocked(); err != nil {
			return nil, 0, err
		}
	}
	dst := s.active
	off := dst.size
	if _, err := dst.f.WriteAt(rec, off); err != nil {
		return nil, 0, fmt.Errorf("store: compact write: %w", err)
	}
	return dst, off, nil
}
