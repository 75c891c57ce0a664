package fs

import "rofs/internal/units"

// MetaModel describes a classic on-disk metadata encoding: a fixed-size
// inode with a few direct descriptor slots, overflowing into indirect
// blocks of descriptors. It quantifies [STON81]'s criticism — which the
// paper's introduction cites — that fixed-block systems dedicate
// "excessive amounts of meta data" (one pointer per block) where extent
// systems describe the same file in a handful of descriptors.
type MetaModel struct {
	InodeBytes         int64 // fixed per-file cost
	DirectSlots        int64 // descriptors stored inside the inode
	DescriptorBytes    int64 // bytes per descriptor
	IndirectBlockBytes int64 // size of each overflow block of descriptors
}

// DefaultMetaModel returns a 1980s-plausible encoding: 128-byte inodes
// with 12 direct slots, 12-byte (address, length) descriptors, and 4K
// indirect blocks.
func DefaultMetaModel() MetaModel {
	return MetaModel{
		InodeBytes:         128,
		DirectSlots:        12,
		DescriptorBytes:    12,
		IndirectBlockBytes: 4 * units.KB,
	}
}

// MetaStats aggregates a file system's metadata footprint under a model.
type MetaStats struct {
	Files       int
	Descriptors int64 // total layout descriptors across all files
	MetaBytes   int64 // inodes + indirect blocks
	// MetaPctOfData is metadata as a percentage of allocated data bytes.
	MetaPctOfData float64
}

// FileMetaBytes returns the metadata cost of one file holding n layout
// descriptors: the inode plus however many whole indirect blocks the
// overflow needs.
func (m MetaModel) FileMetaBytes(n int64) int64 {
	bytes := m.InodeBytes
	if n > m.DirectSlots {
		overflow := (n - m.DirectSlots) * m.DescriptorBytes
		blocks := units.CeilDiv(overflow, m.IndirectBlockBytes)
		bytes += blocks * m.IndirectBlockBytes
	}
	return bytes
}

// MetaStats computes the metadata footprint of every live file. Files
// whose policy does not report descriptor counts are charged one
// descriptor per (merged) extent.
func (fs *FileSystem) MetaStats(m MetaModel) MetaStats {
	var out MetaStats
	type counter interface{ DescriptorCount() int }
	for _, f := range fs.files {
		if f == nil {
			continue
		}
		var n int64
		if c, ok := f.fa.(counter); ok {
			n = int64(c.DescriptorCount())
		} else {
			n = int64(len(f.fa.Extents()))
		}
		out.Files++
		out.Descriptors += n
		out.MetaBytes += m.FileMetaBytes(n)
	}
	if alloc := fs.AllocatedBytes(); alloc > 0 {
		out.MetaPctOfData = 100 * float64(out.MetaBytes) / float64(alloc)
	}
	return out
}
