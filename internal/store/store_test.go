package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// noise returns n bytes of incompressible data (gzip would otherwise
// collapse repetitive test payloads to a few dozen bytes, defeating the
// size-pressure tests). Deterministic per seed.
func noise(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.NoSync = true // tests hammer tiny records; durability is covered separately
	opts.NoCompact = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Put("alpha", []byte("payload-a")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get("alpha")
	if !ok || string(got) != "payload-a" {
		t.Fatalf("Get = %q, %v; want payload-a, true", got, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatalf("Get(missing) hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Records != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReopenServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	payloads := map[string][]byte{}
	s := open(t, dir, Options{})
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%02d", i)
		val := bytes.Repeat([]byte{byte(i)}, 100+i*37)
		payloads[key] = val
		if err := s.Put(key, val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s = open(t, dir, Options{})
	defer s.Close()
	for key, want := range payloads {
		got, ok := s.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("after reopen, Get(%s) = %d bytes, %v; want %d bytes", key, len(got), ok, len(want))
		}
	}
}

func TestSupersede(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("version-%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if got, _ := s.Get("k"); string(got) != "version-2" {
		t.Fatalf("Get = %q, want version-2", got)
	}
	if st := s.Stats(); st.Records != 1 || st.DeadBytes == 0 {
		t.Fatalf("stats after supersede = %+v", st)
	}
	s.Close()
	// The scan must also keep only the newest version.
	s = open(t, dir, Options{})
	defer s.Close()
	if got, _ := s.Get("k"); string(got) != "version-2" {
		t.Fatalf("after reopen, Get = %q, want version-2", got)
	}
}

func TestLRUEvictionByBudget(t *testing.T) {
	// Each record is ~header+key+gzip(1KiB) ≈ 1.1 KiB; a 4 KiB budget
	// holds about three.
	s := open(t, t.TempDir(), Options{MaxBytes: 4 << 10})
	defer s.Close()
	val := noise(1, 1<<10)
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under budget pressure: %+v", st)
	}
	if st.LiveBytes > 4<<10 {
		t.Fatalf("live bytes %d over budget", st.LiveBytes)
	}
	if _, ok := s.Get("k0"); ok {
		t.Fatalf("oldest key survived eviction")
	}
	if _, ok := s.Get("k7"); !ok {
		t.Fatalf("newest key evicted")
	}
}

func TestGetRefreshesLRU(t *testing.T) {
	s := open(t, t.TempDir(), Options{MaxBytes: 4 << 10})
	defer s.Close()
	val := noise(2, 1<<10)
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("k%d", i), val)
	}
	s.Get("k0") // touch the oldest
	for i := 3; i < 5; i++ {
		s.Put(fmt.Sprintf("k%d", i), val)
	}
	if _, ok := s.Get("k0"); !ok {
		t.Fatalf("recently used key evicted before stale ones")
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatalf("stale key survived")
	}
}

func TestBudgetEnforcedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	val := noise(3, 1<<10)
	for i := 0; i < 8; i++ {
		s.Put(fmt.Sprintf("k%d", i), val)
	}
	s.Close()
	s = open(t, dir, Options{MaxBytes: 4 << 10})
	defer s.Close()
	st := s.Stats()
	if st.LiveBytes > 4<<10 {
		t.Fatalf("open did not trim to budget: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("open trimmed without counting evictions: %+v", st)
	}
	if _, ok := s.Get("k7"); !ok {
		t.Fatalf("newest record trimmed at open")
	}
}

func TestCompactionReclaimsDeadSegments(t *testing.T) {
	dir := t.TempDir()
	// Small segments so supersedes spread across many files.
	s := open(t, dir, Options{SegmentBytes: 2 << 10})
	val := noise(4, 512)
	for round := 0; round < 6; round++ {
		for i := 0; i < 4; i++ {
			if err := s.Put(fmt.Sprintf("k%d", i), val); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
	}
	before := s.Stats()
	if before.DeadBytes == 0 {
		t.Fatalf("expected dead bytes before compaction: %+v", before)
	}
	if n := s.Compact(); n == 0 {
		t.Fatalf("Compact reclaimed nothing: %+v", before)
	}
	after := s.Stats()
	if after.DeadBytes >= before.DeadBytes {
		t.Fatalf("dead bytes did not shrink: %d -> %d", before.DeadBytes, after.DeadBytes)
	}
	if after.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", after.Compactions)
	}
	// Every key must still read back, and survive a reopen of the
	// compacted layout.
	for i := 0; i < 4; i++ {
		if got, ok := s.Get(fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(got, val) {
			t.Fatalf("post-compaction Get(k%d) = %d bytes, %v", i, len(got), ok)
		}
	}
	s.Close()
	s = open(t, dir, Options{})
	defer s.Close()
	for i := 0; i < 4; i++ {
		if got, ok := s.Get(fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(got, val) {
			t.Fatalf("post-reopen Get(k%d) = %d bytes, %v", i, len(got), ok)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 1 << 10})
	val := noise(5, 400)
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), val)
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", st.Segments)
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) < 2 {
		t.Fatalf("expected multiple segment files, got %v", segs)
	}
}

func TestKeyLimits(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Put("", []byte("v")); err == nil {
		t.Fatalf("empty key accepted")
	}
	long := string(bytes.Repeat([]byte("k"), maxKeyLen+1))
	if err := s.Put(long, []byte("v")); err == nil {
		t.Fatalf("oversized key accepted")
	}
	if st := s.Stats(); st.PutErrors != 2 {
		t.Fatalf("put errors = %d, want 2", st.PutErrors)
	}
}

func TestClosedStore(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	s.Put("k", []byte("v"))
	s.Close()
	if _, ok := s.Get("k"); ok {
		t.Fatalf("Get succeeded on closed store")
	}
	if err := s.Put("k2", []byte("v")); err == nil {
		t.Fatalf("Put succeeded on closed store")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestEmptyDirAndRecordEncoding(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	defer s.Close()
	if st := s.Stats(); st.Records != 0 || st.LiveBytes != 0 {
		t.Fatalf("fresh store not empty: %+v", st)
	}
	rec, err := encodeRecord("k", []byte("hello"))
	if err != nil {
		t.Fatalf("encodeRecord: %v", err)
	}
	key, n, err := checkRecord(rec)
	if err != nil || key != "k" || n != len(rec) {
		t.Fatalf("checkRecord = %q, %d, %v; want k, %d", key, n, err, len(rec))
	}
	payload, err := decodeRecord(rec)
	if err != nil || string(payload) != "hello" {
		t.Fatalf("decodeRecord = %q, %v", payload, err)
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	s, err := Open(dir, Options{NoSync: true, NoCompact: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("dir not created: %v", err)
	}
}
