package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkOpen times Open over a store of n records: a restarting
// rofs-server pays it before it serves. Every record holds the same real
// rofs-store/v1 envelope (testdata/envelope.json: a bench-scale TP buddy
// application run with metrics on) under its own key, padded to the
// 1,191 bytes of that run's spec key, so a record takes the 3.3 KB a
// served result does. 64 records is what the benchmark's serve workload
// restarts on. The 64 KiB-segment row spreads 1,024 records over 53
// segments, the shape of a server store at its default 4 MiB segments
// and 256 MB budget (64 segments), scaled down.
func BenchmarkOpen(b *testing.B) {
	const keyBytes = 1191
	envelope, err := os.ReadFile(filepath.Join("testdata", "envelope.json"))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		n       int
		segment int64
	}{
		{"records=64", 64, 0},
		{"records=1024", 1024, 0},
		{"records=1024/segment=64KiB", 1024, 64 << 10},
	} {
		n := tc.n
		opts := Options{NoSync: true, NoCompact: true, SegmentBytes: tc.segment}
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := s.Put(fmt.Sprintf("%0*d", keyBytes, i), envelope); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Open(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				if s.Len() != n {
					b.Fatalf("Open indexed %d records, want %d", s.Len(), n)
				}
				s.Close()
			}
		})
	}
}
