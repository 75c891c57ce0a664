package fixed

import (
	"fmt"
	"testing"

	"rofs/internal/alloc"
)

var extentsSink []alloc.Extent

// BenchmarkGrowThenExtents is the access pattern of a transaction-processing
// relation on 16K blocks: one block is appended and read back through
// Extents(), then truncated away and read again. The 13,440-block file is
// a 210M relation; ns/op must stay flat as the block count grows, since
// the extent map is kept current rather than rebuilt on read.
func BenchmarkGrowThenExtents(b *testing.B) {
	const bu = 16
	for _, blocks := range []int64{840, 13440} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			p, err := New(Config{TotalUnits: 2 * blocks * bu, BlockUnits: bu})
			if err != nil {
				b.Fatal(err)
			}
			f := p.NewFile(0)
			if _, err := f.Grow(blocks * bu); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Grow(bu); err != nil {
					b.Fatal(err)
				}
				extentsSink = f.Extents()
				f.TruncateTo(f.AllocatedUnits() - bu)
				extentsSink = f.Extents()
			}
		})
	}
}
