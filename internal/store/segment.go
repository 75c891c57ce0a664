package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Record layout (little-endian), append-only:
//
//	 0.. 4  magic "RFS1"
//	 4.. 8  CRC32-C over bytes [8, end) of the record
//	 8      format version (1)
//	 9      flags (bit 0: payload is gzip-compressed)
//	10..12  reserved (zero)
//	12..16  key length
//	16..20  payload length (stored, i.e. post-compression)
//	20..    key bytes, then payload bytes
//
// The checksum covers the version, flags, lengths, key, and payload, so
// a torn write anywhere in the record — header included — fails
// verification. Compaction checks each record and copies it verbatim;
// the checksum stays valid because the covered bytes never change.
const (
	recordMagic      = "RFS1"
	recordVersion    = 1
	recordHeaderSize = 20

	flagGzip = 1 << 0

	maxKeyLen     = 1 << 16
	maxPayloadLen = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt wraps every record-level integrity failure so scan and read
// paths can classify damage uniformly.
var errCorrupt = errors.New("store: corrupt record")

// Reusable gzip state: a new compressor allocates about 0.8 MB and a new
// decompressor about 40 KB, and the store needed one per Put and per
// record read. Each Get has exclusive use of its value until the
// matching Put, and every use starts with Reset, which leaves the state
// as NewWriter (or NewReader) would: records stay byte-identical.
var (
	gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}
	inflaters   = sync.Pool{New: func() any { return new(inflater) }}
)

// deflate compresses payload with zw, which it Resets first.
func deflate(zw *gzip.Writer, payload []byte) ([]byte, error) {
	var comp bytes.Buffer
	zw.Reset(&comp)
	if _, err := zw.Write(payload); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return comp.Bytes(), nil
}

// inflater is a reusable gzip decoder with the reader it decodes from.
type inflater struct {
	src bytes.Reader
	zr  gzip.Reader
}

// inflate decompresses one stored payload. The decoder is Reset first, so
// one that failed on a corrupt record decodes the next record cleanly,
// and it lets go of stored before returning.
func (in *inflater) inflate(stored []byte) ([]byte, error) {
	in.src.Reset(stored)
	defer in.src.Reset(nil)
	if err := in.zr.Reset(&in.src); err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(io.LimitReader(&in.zr, maxPayloadLen+1))
	if cerr := in.zr.Close(); err == nil {
		err = cerr
	}
	return payload, err
}

// encodeRecord renders one key/payload pair as a checksummed record,
// compressing the payload.
func encodeRecord(key string, payload []byte) ([]byte, error) {
	if len(key) == 0 || len(key) > maxKeyLen {
		return nil, fmt.Errorf("store: key length %d out of range (1..%d)", len(key), maxKeyLen)
	}
	zw := gzipWriters.Get().(*gzip.Writer)
	comp, err := deflate(zw, payload)
	gzipWriters.Put(zw)
	if err != nil {
		return nil, fmt.Errorf("store: compress: %w", err)
	}
	if len(comp) > maxPayloadLen {
		return nil, fmt.Errorf("store: payload %d bytes exceeds the %d-byte record limit", len(comp), maxPayloadLen)
	}
	rec := make([]byte, recordHeaderSize+len(key)+len(comp))
	copy(rec[0:4], recordMagic)
	rec[8] = recordVersion
	rec[9] = flagGzip
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[16:20], uint32(len(comp)))
	copy(rec[recordHeaderSize:], key)
	copy(rec[recordHeaderSize+len(key):], comp)
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], castagnoli))
	return rec, nil
}

// parseHeader validates a record header in buf and returns the key and
// stored-payload lengths. buf must hold at least recordHeaderSize bytes.
func parseHeader(buf []byte) (keyLen, payloadLen int, err error) {
	if string(buf[0:4]) != recordMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	if buf[8] != recordVersion {
		return 0, 0, fmt.Errorf("%w: unknown version %d", errCorrupt, buf[8])
	}
	keyLen = int(binary.LittleEndian.Uint32(buf[12:16]))
	payloadLen = int(binary.LittleEndian.Uint32(buf[16:20]))
	if keyLen == 0 || keyLen > maxKeyLen || payloadLen < 0 || payloadLen > maxPayloadLen {
		return 0, 0, fmt.Errorf("%w: implausible lengths key=%d payload=%d", errCorrupt, keyLen, payloadLen)
	}
	return keyLen, payloadLen, nil
}

// checkRecord verifies the record at the start of buf, which may run on
// past it: magic, version, lengths, and the checksum over everything
// after the checksum field. It returns the record's key and length and
// leaves the payload compressed; decodeRecord inflates it.
func checkRecord(buf []byte) (key string, n int, err error) {
	if len(buf) < recordHeaderSize {
		return "", 0, fmt.Errorf("%w: truncated header", errCorrupt)
	}
	keyLen, payloadLen, err := parseHeader(buf)
	if err != nil {
		return "", 0, err
	}
	n = recordHeaderSize + keyLen + payloadLen
	if n > len(buf) {
		return "", 0, fmt.Errorf("%w: truncated record", errCorrupt)
	}
	if got := crc32.Checksum(buf[8:n], castagnoli); got != binary.LittleEndian.Uint32(buf[4:8]) {
		return "", 0, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	return string(buf[recordHeaderSize : recordHeaderSize+keyLen]), n, nil
}

// decodeRecord returns the payload of a record that checkRecord
// accepted, decompressing it.
func decodeRecord(rec []byte) ([]byte, error) {
	stored := rec[recordHeaderSize+int(binary.LittleEndian.Uint32(rec[12:16])):]
	if rec[9]&flagGzip == 0 {
		return append([]byte(nil), stored...), nil
	}
	in := inflaters.Get().(*inflater)
	payload, err := in.inflate(stored)
	inflaters.Put(in)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return payload, nil
}

// readChecked reads e's record from f and checks that it is intact and
// still e's. Damage, as opposed to a failed read, wraps errCorrupt.
func readChecked(f *os.File, e *entry) ([]byte, error) {
	rec := make([]byte, e.size)
	if _, err := f.ReadAt(rec, e.off); err != nil {
		return nil, fmt.Errorf("store: read %s@%d: %w", segName(e.seg), e.off, err)
	}
	key, n, err := checkRecord(rec)
	if err != nil {
		return nil, err
	}
	if n != len(rec) || key != e.key {
		return nil, fmt.Errorf("%w: %s@%d holds another record", errCorrupt, segName(e.seg), e.off)
	}
	return rec, nil
}

// readRecord reads, checks and decodes e's record. Caller holds s.mu.
func (s *Store) readRecord(e *entry) ([]byte, error) {
	seg, ok := s.segs[e.seg]
	if !ok || seg.f == nil {
		return nil, fmt.Errorf("store: segment %d gone", e.seg)
	}
	rec, err := readChecked(seg.f, e)
	if err != nil {
		return nil, err
	}
	return decodeRecord(rec)
}

// scanSegment replays one segment into the index. It checks every
// record but decodes none: Get decodes, and fails a payload that does
// not inflate. The first integrity failure — bad magic, implausible
// lengths, checksum mismatch, or a record extending past the end of the
// file — quarantines the rest of the segment: the damaged bytes are
// copied to a .quarantined sidecar, the segment is truncated back to its
// last good record, and the scan moves on. A kill mid-write therefore
// costs at most the torn tail.
//
// The segment is read into buf, grown as needed and returned for the next
// segment's scan: Open allocates and zeroes one buffer the size of the
// largest segment, not one per segment. Nothing indexed points into it.
func (s *Store) scanSegment(id int, buf []byte) ([]byte, error) {
	path := filepath.Join(s.dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return buf, fmt.Errorf("store: %w", err)
	}
	seg := &segment{id: id, f: f}
	s.segs[id] = seg
	data, err := readFull(f, buf)
	if err != nil {
		return data, fmt.Errorf("store: scan %s: %w", segName(id), err)
	}

	off := 0
	for off < len(data) {
		key, recLen, err := checkRecord(data[off:])
		if err != nil {
			if qerr := s.quarantineTail(seg, data, off); qerr != nil {
				return data, qerr
			}
			break
		}
		if old, ok := s.index[key]; ok {
			s.dropLocked(old)
		}
		e := &entry{key: key, seg: id, off: int64(off), size: int64(recLen)}
		e.elem = s.lru.PushFront(e)
		s.index[key] = e
		seg.live += int64(recLen)
		s.liveBytes += int64(recLen)
		off += recLen
	}
	// Dead bytes (superseded records) were counted by dropLocked as the
	// scan discovered newer versions; only the segment size remains.
	seg.size = int64(off)
	return data, nil
}

// readFull reads f from its start to EOF into buf's backing array, sized
// from Stat the way os.ReadFile sizes a fresh one, and grown only if the
// file is longer than Stat said.
func readFull(f *os.File, buf []byte) ([]byte, error) {
	if fi, err := f.Stat(); err == nil && int64(cap(buf)) <= fi.Size() {
		buf = make([]byte, 0, fi.Size()+1) // +1: see EOF without regrowing
	}
	buf = buf[:0]
	for {
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// quarantineTail copies data[off:] to the segment's .quarantined sidecar
// and truncates the segment file back to off.
func (s *Store) quarantineTail(seg *segment, data []byte, off int) error {
	side := filepath.Join(s.dir, segName(seg.id)+".quarantined")
	if err := os.WriteFile(side, data[off:], 0o644); err != nil {
		return fmt.Errorf("store: quarantine %s: %w", segName(seg.id), err)
	}
	if err := seg.f.Truncate(int64(off)); err != nil {
		return fmt.Errorf("store: truncate %s: %w", segName(seg.id), err)
	}
	if !s.opts.NoSync {
		seg.f.Sync()
		syncDir(s.dir)
	}
	s.stats.Quarantined++
	return nil
}
