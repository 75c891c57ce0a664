package store

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"sync"
	"testing"
)

// gzipSizes is a sequence of payloads whose sizes and compressibility
// change from one to the next, so each reuse of gzip state follows a use
// that left it in a different shape.
var gzipSizes = []struct {
	n      int
	random bool
}{{0, false}, {1, true}, {300, true}, {70_000, false}, {5, false},
	{300_000, true}, {65_536, false}, {40_000, true}, {2, true}}

func gzipPayload(i int) []byte {
	sz := gzipSizes[i]
	if sz.random {
		return noise(int64(i), sz.n)
	}
	return bytes.Repeat([]byte(fmt.Sprintf("payload %d ", i)), sz.n/10+1)[:sz.n]
}

// freshGzip compresses p with a new writer, as every record was written
// before gzip state was reused.
func freshGzip(t *testing.T, p []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReusedGzipMatchesFresh: one writer reused over the size sequence
// produces exactly the bytes of a fresh gzip.NewWriter each time, and so
// does encodeRecord's pooled writer; one reused inflater reads every
// record back.
func TestReusedGzipMatchesFresh(t *testing.T) {
	zw := gzip.NewWriter(nil)
	var in inflater
	for pass := 0; pass < 2; pass++ {
		for i := range gzipSizes {
			p := gzipPayload(i)
			want := freshGzip(t, p)
			got, err := deflate(zw, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("payload %d (%d bytes): the reused writer wrote %d bytes that differ from a fresh writer's %d",
					i, len(p), len(got), len(want))
			}
			key := fmt.Sprintf("key-%d", i)
			rec, err := encodeRecord(key, p)
			if err != nil {
				t.Fatal(err)
			}
			if stored := rec[recordHeaderSize+len(key):]; !bytes.Equal(stored, want) {
				t.Fatalf("payload %d (%d bytes): encodeRecord stored bytes that differ from a fresh writer's", i, len(p))
			}
			back, err := in.inflate(want)
			if err != nil || !bytes.Equal(back, p) {
				t.Fatalf("payload %d: the reused inflater read %d bytes (%v), want %d", i, len(back), err, len(p))
			}
		}
	}
}

// TestInflaterRecoversAfterCorruptRecord: an inflater that failed on a
// damaged stream decodes the next good one exactly.
func TestInflaterRecoversAfterCorruptRecord(t *testing.T) {
	good := gzipPayload(3)
	stream := freshGzip(t, good)
	damage := map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)/2] },
		"bad-magic":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad-deflate": func(b []byte) []byte { b[len(b)/2] ^= 0x5a; return b },
		"bad-crc":     func(b []byte) []byte { b[len(b)-8] ^= 0x01; return b },
		"empty":       func([]byte) []byte { return nil },
	}
	var in inflater
	for name, fn := range damage {
		if _, err := in.inflate(fn(append([]byte(nil), stream...))); err == nil {
			t.Fatalf("%s: a damaged stream decoded without error", name)
		}
		got, err := in.inflate(stream)
		if err != nil || !bytes.Equal(got, good) {
			t.Fatalf("after %s: the good stream decoded to %d bytes (%v), want %d", name, len(got), err, len(good))
		}
	}
}

// TestConcurrentPutGet hammers one store from several goroutines, so the
// race detector sees concurrent use of the pooled gzip state; a reopen
// then reads every record back through the scan.
func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 30
	key := func(w, i int) string { return fmt.Sprintf("w%d-%03d", w, i) }
	payload := func(w, i int) []byte {
		if i%2 == 0 {
			return noise(int64(w*1000+i), 100+i*97)
		}
		return bytes.Repeat([]byte(key(w, i)), 50+i*13)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := s.Put(key(w, i), payload(w, i)); err != nil {
					t.Errorf("Put %s: %v", key(w, i), err)
					return
				}
				if got, ok := s.Get(key(w, i)); !ok || !bytes.Equal(got, payload(w, i)) {
					t.Errorf("Get %s: %d bytes, hit %t; want its %d bytes", key(w, i), len(got), ok, len(payload(w, i)))
				}
				// Another worker's record, if it is there yet.
				o := (w + 1) % workers
				if got, ok := s.Get(key(o, i)); ok && !bytes.Equal(got, payload(o, i)) {
					t.Errorf("Get %s from worker %d: wrong payload", key(o, i), w)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir, Options{})
	defer s.Close()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if got, ok := s.Get(key(w, i)); !ok || !bytes.Equal(got, payload(w, i)) {
				t.Fatalf("after reopen, Get %s: %d bytes, hit %t", key(w, i), len(got), ok)
			}
		}
	}
	if st := s.Stats(); st.Quarantined != 0 || st.GetErrors != 0 {
		t.Fatalf("after reopen: %+v", st)
	}
}
