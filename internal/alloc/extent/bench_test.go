package extent

import (
	"testing"

	"rofs/internal/sim"
)

// BenchmarkGrowTruncate measures the grow/free hot path over a fragmented
// free list: 128 holes of about 100 units sit below one large free run,
// and each cycle grows a file through ~16-unit extents to 1024 units —
// each extent a first-fit or best-fit search — then truncates it to zero,
// coalescing the extents back into the holes they came from.
func BenchmarkGrowTruncate(b *testing.B) {
	for _, fit := range []Fit{FirstFit, BestFit} {
		b.Run(fit.String(), func(b *testing.B) {
			p, err := New(Config{
				TotalUnits: 1 << 20,
				Fit:        fit,
				RangeMeans: []int64{16, 128},
				RNG:        sim.NewRNG(1),
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 256; i++ {
				hole := p.NewFile(128)
				if _, err := hole.Grow(100); err != nil {
					b.Fatal(err)
				}
				if i%2 == 0 {
					hole.TruncateTo(0)
				}
			}
			f := p.NewFile(16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for f.AllocatedUnits() < 1024 {
					if _, err := f.Grow(1); err != nil {
						b.Fatal(err)
					}
				}
				f.TruncateTo(0)
			}
		})
	}
}
