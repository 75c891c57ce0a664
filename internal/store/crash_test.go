package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// seedStore writes n records into dir and closes the store, returning
// the payloads so the caller can verify recovery.
func seedStore(t *testing.T, dir string, n int) map[string][]byte {
	t.Helper()
	s := open(t, dir, Options{})
	payloads := map[string][]byte{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("crash-%02d", i)
		val := noise(int64(100+i), 300)
		payloads[key] = val
		if err := s.Put(key, val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return payloads
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	return segs[0]
}

// TestTruncatedTailQuarantined simulates a kill mid-write: the last
// record is half-written. Open must detect the torn tail via the
// checksum, quarantine it, and serve everything before the tear.
func TestTruncatedTailQuarantined(t *testing.T) {
	dir := t.TempDir()
	payloads := seedStore(t, dir, 5)
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through the final record.
	if err := os.WriteFile(seg, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir, Options{})
	defer s.Close()
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1 (%+v)", st.Quarantined, st)
	}
	if st.Records != 4 {
		t.Fatalf("records = %d, want 4 (lost only the torn tail)", st.Records)
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("crash-%02d", i)
		got, ok := s.Get(key)
		if !ok || !bytes.Equal(got, payloads[key]) {
			t.Fatalf("Get(%s) after recovery = %v", key, ok)
		}
	}
	if _, ok := s.Get("crash-04"); ok {
		t.Fatalf("torn record served")
	}
	// The damaged bytes land in a sidecar and the segment shrinks back to
	// its last good record.
	side := seg + ".quarantined"
	if fi, err := os.Stat(side); err != nil || fi.Size() == 0 {
		t.Fatalf("quarantine sidecar missing or empty: %v", err)
	}
	// The store must stay writable past the tear.
	if err := s.Put("after-crash", []byte("ok")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if got, ok := s.Get("after-crash"); !ok || string(got) != "ok" {
		t.Fatalf("Get after recovery put: %v", ok)
	}
}

// TestCorruptRecordQuarantined flips payload bytes inside a middle
// record: the checksum catches it, and the scan quarantines from the
// damage onward (records before it survive).
func TestCorruptRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	payloads := seedStore(t, dir, 5)
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the third record's offset by walking headers, then corrupt its
	// payload region without touching its header lengths.
	off := 0
	for i := 0; i < 2; i++ {
		keyLen, payloadLen, err := parseHeader(data[off:])
		if err != nil {
			t.Fatalf("parseHeader: %v", err)
		}
		off += recordHeaderSize + keyLen + payloadLen
	}
	for i := 0; i < 8; i++ {
		data[off+recordHeaderSize+10+i] ^= 0xff
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir, Options{})
	defer s.Close()
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	if st.Records != 2 {
		t.Fatalf("records = %d, want the 2 before the corruption", st.Records)
	}
	for i := 0; i < 2; i++ {
		key := fmt.Sprintf("crash-%02d", i)
		got, ok := s.Get(key)
		if !ok || !bytes.Equal(got, payloads[key]) {
			t.Fatalf("Get(%s) = %v", key, ok)
		}
	}
	if err := s.Put("recovered", []byte("v")); err != nil {
		t.Fatalf("Put after quarantine: %v", err)
	}
}

// TestGarbageSegment feeds a segment of pure garbage: everything is
// quarantined and the store opens empty but writable.
func TestGarbageSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(0)), noise(7, 2048), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.Records != 0 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

// TestBadCRCOnRead covers corruption that appears after open (bit rot):
// Get verifies the checksum on every read and degrades to a miss.
func TestBadCRCOnRead(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	defer s.Close()
	if err := s.Put("k", noise(9, 200)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte behind the store's back.
	seg := onlySegment(t, dir)
	f, err := os.OpenFile(seg, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xAA}, recordHeaderSize+5); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := s.Get("k"); ok {
		t.Fatalf("Get served a record with a bad checksum")
	}
	st := s.Stats()
	if st.GetErrors != 1 || st.Records != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestOpenChecksGetDecodes pins where decoding happens: Open checks each
// record's checksum and inflates nothing, and Get inflates. A record
// whose checksum holds but whose gzip stream does not inflate is
// indexed at Open; Get misses on it and drops it.
func TestOpenChecksGetDecodes(t *testing.T) {
	dir := t.TempDir()
	bad, err := encodeRecord("bad", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	stored := []byte("not a gzip stream")
	bad = append(bad[:recordHeaderSize+len("bad")], stored...)
	binary.LittleEndian.PutUint32(bad[16:20], uint32(len(stored)))
	binary.LittleEndian.PutUint32(bad[4:8], crc32.Checksum(bad[8:], castagnoli))
	good, err := encodeRecord("good", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(0)), append(bad, good...), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.Records != 2 || st.Quarantined != 0 {
		t.Fatalf("after Open: %+v; want both records indexed and nothing quarantined", st)
	}
	if _, ok := s.Get("bad"); ok {
		t.Fatalf("Get served a payload that does not inflate")
	}
	if st := s.Stats(); st.GetErrors != 1 || st.Records != 1 {
		t.Fatalf("after Get(bad): %+v; want one GetError and the entry dropped", st)
	}
	if got, ok := s.Get("good"); !ok || string(got) != "payload" {
		t.Fatalf("Get(good) = %q, %v", got, ok)
	}
}

// TestCompactionDropsDamagedRecord: a record damaged after Open is
// dropped by the compaction that would have moved it. Copied into the
// active segment, it would make the next Open quarantine it together
// with every record appended after it.
func TestCompactionDropsDamagedRecord(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 2 << 10})
	val := noise(11, 512)
	if err := s.Put("a", val); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Put("x", val); err != nil {
			t.Fatal(err)
		}
	}
	// Flip one payload byte of a, the first record of the first segment.
	f, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	at := int64(recordHeaderSize + len("a") + 100)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if n := s.Compact(); n == 0 {
		t.Fatalf("Compact reclaimed nothing: %+v", s.Stats())
	}
	if st := s.Stats(); st.GetErrors != 1 || st.Records != 1 {
		t.Fatalf("after Compact: %+v; want a dropped with one GetError, x kept", st)
	}
	for _, k := range []string{"b", "c"} {
		if err := s.Put(k, []byte("value "+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = open(t, dir, Options{})
	defer s.Close()
	if st := s.Stats(); st.Quarantined != 0 || st.Records != 3 {
		t.Fatalf("after reopen: %+v; want x, b and c and nothing quarantined", st)
	}
	for _, k := range []string{"b", "c"} {
		if got, ok := s.Get(k); !ok || string(got) != "value "+k {
			t.Fatalf("after reopen, Get(%s) = %q, %v", k, got, ok)
		}
	}
	if got, ok := s.Get("x"); !ok || !bytes.Equal(got, val) {
		t.Fatalf("after reopen, Get(x) = %d bytes, %v", len(got), ok)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatalf("the damaged record came back")
	}
}

// FuzzScanSegment throws arbitrary bytes at the open-time segment scan:
// it must never panic, and whatever it indexes must read back. The scan
// checks each record's checksum and decodes nothing, so that property
// rests on the checksum: bytes that pass it yet do not inflate would be
// indexed and then miss (TestOpenChecksGetDecodes builds such a record).
func FuzzScanSegment(f *testing.F) {
	// Valid single record.
	rec, err := encodeRecord("fuzz-key", []byte("fuzz-payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	// Valid record followed by a torn tail.
	torn := append(append([]byte(nil), rec...), rec[:len(rec)/2]...)
	f.Add(torn)
	// Record with a corrupted checksum.
	bad := append([]byte(nil), rec...)
	bad[6] ^= 0xff
	f.Add(bad)
	// Header claiming a huge payload.
	huge := append([]byte(nil), rec[:recordHeaderSize]...)
	binary.LittleEndian.PutUint32(huge[16:20], maxPayloadLen)
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte(recordMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(dir, Options{NoSync: true, NoCompact: true})
		if err != nil {
			return // IO-level failure is acceptable; panics are not
		}
		defer s.Close()
		// Every indexed record must read back.
		s.mu.Lock()
		keys := make([]string, 0, len(s.index))
		for k := range s.index {
			keys = append(keys, k)
		}
		s.mu.Unlock()
		for _, k := range keys {
			if _, ok := s.Get(k); !ok {
				t.Fatalf("indexed key %q did not read back", k)
			}
		}
	})
}
