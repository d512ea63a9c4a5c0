// Package wal is a segmented append-only journal of one logical byte
// stream, the durability layer behind WAL-backed conduits: the durable
// transport binding (internal/conduit) journals every outbound chunk
// here *before* it enters the link, truncates acknowledged segments,
// and replays from the receiver's delivered offset after a process is
// killed — so a `kill -9` becomes indistinguishable from a long
// partition and the network computes the same bytes.
//
// The log is addressed in logical stream offsets, the same coordinate
// system the netio RESUME machinery speaks (logical, uncompressed
// bytes). Each segment file is named by the offset of its first payload
// byte, and each record is CRC-framed:
//
//	wal-%016x.seg:  [ payLen uint32 ][ crc32c(payload) uint32 ][ payload ] ...
//
// On Open the tail of the newest segment is scanned strictly, in the
// style of TSDB write-ahead logs: a record whose length field is
// implausible (corrupt-length) or whose checksum does not match
// (corrupt-block) marks the torn tail of a crashed append and is
// truncated away, along with everything after it. Torn bytes are bytes
// the link never saw — the durable binding fsyncs before it releases a
// chunk to the wire — so dropping them is always safe. Corruption in
// the *middle* of the retained history (an interior segment) is not
// tolerated: it means lost acknowledged-but-undelivered data, and Open
// fails with ErrCorrupt.
//
// Truncation is ack-threshold, whole-segment: Truncate(off) deletes
// only segments entirely below off and never the active one, so a crash
// during truncation leaves either a clean prefix deletion (the base
// simply advanced) or — if the filesystem reordered the unlinks — a gap,
// which Open heals by keeping the newest contiguous suffix (everything
// below a gap was acknowledged, or it could not have been truncated).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrCorrupt reports unrecoverable journal corruption: a record in the
// retained (non-tail) history failed validation, or segment offsets are
// inconsistent in a way no crash can produce.
var ErrCorrupt = errors.New("wal: corrupt journal")

const (
	recHdrLen = 8 // payLen uint32 + crc32c uint32, both big-endian

	// DefaultSegmentBytes is the payload-byte rotation threshold.
	DefaultSegmentBytes = 4 << 20

	// maxRecord bounds one record's payload; a length field above it is
	// corrupt-length by definition (link chunks are <= 128 KiB).
	maxRecord = 1 << 24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tune a Log. The zero value is production-shaped.
type Options struct {
	// SegmentBytes rotates the active segment once it holds at least
	// this many payload bytes (0 selects DefaultSegmentBytes).
	SegmentBytes int
	// NoSync makes Sync a no-op. Benchmarks and tests only: a crash can
	// then lose journaled-but-unsynced bytes, voiding the replay
	// guarantee.
	NoSync bool
}

// segment is one on-disk file of the log.
type segment struct {
	base uint64 // logical offset of its first payload byte
	size uint64 // payload bytes it holds
	path string
}

func (s segment) end() uint64 { return s.base + s.size }

// Log is a segmented append-only journal. All methods are safe for
// concurrent use: the durable binding appends from the link's reader
// goroutine while acknowledgements truncate from the session goroutine.
type Log struct {
	dir string
	opt Options

	mu    sync.Mutex
	segs  []segment // ordered by base; the last is active
	f     *os.File  // active segment, opened for append
	fsize int64     // file bytes in the active segment (payload + headers)
	end   uint64    // logical offset after the last appended byte
}

func segName(base uint64) string { return fmt.Sprintf("wal-%016x.seg", base) }

// parseSegName returns the base offset encoded in a segment file name.
func parseSegName(name string) (uint64, bool) {
	var base uint64
	if n, err := fmt.Sscanf(name, "wal-%16x.seg", &base); err != nil || n != 1 || name != segName(base) {
		return 0, false
	}
	return base, true
}

// Open opens (or creates) the journal in dir, validating every retained
// record and truncating a torn tail. See the package comment for the
// recovery rules.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		base, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, segment{base: base, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })

	// Heal a truncation crash: keep the newest contiguous run of
	// segments; stray older files (before a gap) were below the ack
	// threshold that was being truncated, so deleting them loses nothing.
	// Sizing each segment needs a scan, but contiguity can be checked
	// cheaply afterwards; interior segments get the strict scan, the last
	// one the tolerant scan.
	l := &Log{dir: dir, opt: opt}
	for i, s := range segs {
		last := i == len(segs)-1
		size, err := scanSegment(s.path, last)
		if err != nil {
			return nil, err
		}
		segs[i].size = size
	}
	// Find the start of the newest contiguous suffix.
	start := 0
	for i := 1; i < len(segs); i++ {
		if segs[i-1].end() != segs[i].base {
			start = i
		}
	}
	for _, s := range segs[:start] {
		os.Remove(s.path)
	}
	segs = segs[start:]

	if len(segs) == 0 {
		segs = []segment{{base: 0, size: 0, path: filepath.Join(dir, segName(0))}}
	}
	l.segs = segs
	l.end = segs[len(segs)-1].end()
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	if info, err := f.Stat(); err == nil {
		l.fsize = info.Size()
	}
	return l, nil
}

// scanSegment validates every record of one segment file and returns
// the payload bytes it holds. When tolerant (the newest segment), a
// corrupt-length or corrupt-block record marks the torn tail: the file
// is truncated at the last good record boundary. A strict scan returns
// ErrCorrupt instead.
func scanSegment(path string, tolerant bool) (uint64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	fileSize := info.Size()
	var hdr [recHdrLen]byte
	var filePos int64
	var payload uint64
	buf := make([]byte, 64*1024)
	for filePos < fileSize {
		bad := ""
		if fileSize-filePos < recHdrLen {
			bad = "torn record header"
		} else {
			if _, err := f.ReadAt(hdr[:], filePos); err != nil {
				return 0, err
			}
			payLen := int64(binary.BigEndian.Uint32(hdr[0:4]))
			wantCRC := binary.BigEndian.Uint32(hdr[4:8])
			switch {
			case payLen == 0 || payLen > maxRecord:
				bad = fmt.Sprintf("implausible record length %d", payLen)
			case filePos+recHdrLen+payLen > fileSize:
				bad = fmt.Sprintf("record length %d overruns the file", payLen)
			default:
				if int64(cap(buf)) < payLen {
					buf = make([]byte, payLen)
				}
				b := buf[:payLen]
				if _, err := f.ReadAt(b, filePos+recHdrLen); err != nil {
					return 0, err
				}
				if crc32.Checksum(b, castagnoli) != wantCRC {
					bad = "checksum mismatch"
				} else {
					filePos += recHdrLen + payLen
					payload += uint64(payLen)
				}
			}
		}
		if bad != "" {
			if !tolerant {
				return 0, fmt.Errorf("%w: %s at %s+%d", ErrCorrupt, bad, filepath.Base(path), filePos)
			}
			// Torn tail of a crashed append: drop it and everything after.
			if err := f.Truncate(filePos); err != nil {
				return 0, err
			}
			return payload, nil
		}
	}
	return payload, nil
}

// Dir returns the journal's directory.
func (l *Log) Dir() string { return l.dir }

// Base returns the logical offset of the first retained byte.
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].base
}

// End returns the logical offset after the last appended byte.
func (l *Log) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Segments reports how many segment files the log currently holds.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Append journals p as one record and returns its starting logical
// offset. The bytes are NOT durable until Sync returns; the durable
// binding appends, syncs, and only then releases the bytes to the wire.
func (l *Log) Append(p []byte) (uint64, error) {
	if len(p) == 0 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.end, nil
	}
	if len(p) > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap", len(p), maxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errors.New("wal: log is closed")
	}
	active := &l.segs[len(l.segs)-1]
	if active.size >= uint64(l.opt.SegmentBytes) {
		if err := l.rotate(); err != nil {
			return 0, err
		}
		active = &l.segs[len(l.segs)-1]
	}
	var hdr [recHdrLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(p)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(p, castagnoli))
	if _, err := l.f.Write(hdr[:]); err != nil {
		l.f.Truncate(l.fsize)
		return 0, err
	}
	if _, err := l.f.Write(p); err != nil {
		// Roll the file back to the last record boundary so disk and
		// memory stay consistent; a crash here instead leaves a torn
		// tail the next Open truncates the same way.
		l.f.Truncate(l.fsize)
		return 0, err
	}
	off := l.end
	l.fsize += recHdrLen + int64(len(p))
	active.size += uint64(len(p))
	l.end += uint64(len(p))
	return off, nil
}

// rotate seals the active segment (fsync unless NoSync) and starts a
// new one based at the current end offset. Caller holds l.mu.
func (l *Log) rotate() error {
	if !l.opt.NoSync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	seg := segment{base: l.end, size: 0, path: filepath.Join(l.dir, segName(l.end))}
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.fsize = 0
	l.segs = append(l.segs, seg)
	return nil
}

// Sync makes every appended byte durable (fsync of the active segment;
// rotation syncs sealed segments as they close). No-op under NoSync.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opt.NoSync || l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Truncate deletes whole segments that lie entirely below keep (the ack
// threshold), oldest first, never touching the active segment. It
// returns the payload bytes removed. Offsets below the new Base can no
// longer be replayed — callers pass only receiver-confirmed offsets.
func (l *Log) Truncate(keep uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var removed uint64
	for len(l.segs) > 1 && l.segs[0].end() <= keep {
		s := l.segs[0]
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return removed, err
		}
		removed += s.size
		l.segs[0] = segment{}
		l.segs = l.segs[1:]
	}
	return removed, nil
}

// Close syncs and closes the active segment. The journal on disk stays
// valid for a later Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if !l.opt.NoSync {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// segmentAt returns the segment covering logical offset off, or false
// when off is at or past the end. Caller holds l.mu.
func (l *Log) segmentAt(off uint64) (segment, bool) {
	for _, s := range l.segs {
		if off >= s.base && off < s.end() {
			return s, true
		}
	}
	return segment{}, false
}

// Reader streams the journal's payload bytes from a logical offset.
// Reads return io.EOF at the log's end *as of each Read call*, so a
// reader opened before an append also sees the appended bytes. The
// reader holds at most one segment file open; segments truncated behind
// it stay readable through the held descriptor (POSIX unlink
// semantics), and the durable binding never truncates past its own read
// position.
type Reader struct {
	l *Log

	off     uint64 // next logical offset to return
	f       *os.File
	segEnd  uint64 // logical end of the open segment
	filePos int64  // read position within the open segment file
	rec     int64  // payload bytes remaining in the current record
}

// ReaderAt returns a Reader positioned at logical offset off, which
// must lie in [Base, End].
func (l *Log) ReaderAt(off uint64) (*Reader, error) {
	l.mu.Lock()
	base, end := l.segs[0].base, l.end
	l.mu.Unlock()
	if off < base || off > end {
		return nil, fmt.Errorf("wal: offset %d outside retained range [%d, %d]", off, base, end)
	}
	return &Reader{l: l, off: off}, nil
}

// open positions the reader's file state at r.off.
func (r *Reader) open() error {
	r.l.mu.Lock()
	s, ok := r.l.segmentAt(r.off)
	r.l.mu.Unlock()
	if !ok {
		return io.EOF
	}
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	// Walk the records to map the logical offset to a file position;
	// segmentAt guarantees s.base <= r.off < s.end(), so the walk
	// always terminates inside a record.
	var hdr [recHdrLen]byte
	logical := s.base
	var filePos int64
	for {
		if _, err := f.ReadAt(hdr[:], filePos); err != nil {
			f.Close()
			return fmt.Errorf("wal: reading record header at %s+%d: %w", filepath.Base(s.path), filePos, err)
		}
		payLen := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if payLen <= 0 || payLen > maxRecord {
			f.Close()
			return fmt.Errorf("%w: implausible record length %d at %s+%d", ErrCorrupt, payLen, filepath.Base(s.path), filePos)
		}
		if logical+uint64(payLen) > r.off {
			// The target offset lands inside this record.
			skip := int64(r.off - logical)
			r.filePos = filePos + recHdrLen + skip
			r.rec = payLen - skip
			r.f = f
			r.segEnd = s.end()
			return nil
		}
		logical += uint64(payLen)
		filePos += recHdrLen + payLen
	}
}

// Read implements io.Reader over the journal's logical payload stream.
func (r *Reader) Read(p []byte) (int, error) {
	r.l.mu.Lock()
	end := r.l.end
	r.l.mu.Unlock()
	if r.off >= end {
		return 0, io.EOF
	}
	if r.f == nil {
		if err := r.open(); err != nil {
			return 0, err
		}
	}
	if r.off == r.segEnd {
		// Advance into the next segment (it exists: off < end).
		r.f.Close()
		r.f = nil
		if err := r.open(); err != nil {
			return 0, err
		}
	}
	if r.rec == 0 {
		var hdr [recHdrLen]byte
		if _, err := r.f.ReadAt(hdr[:], r.filePos); err != nil {
			return 0, fmt.Errorf("wal: reading record header: %w", err)
		}
		payLen := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if payLen <= 0 || payLen > maxRecord {
			return 0, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, payLen)
		}
		r.filePos += recHdrLen
		r.rec = payLen
	}
	n := int64(len(p))
	if n > r.rec {
		n = r.rec
	}
	if lim := int64(end - r.off); n > lim {
		n = lim
	}
	if _, err := r.f.ReadAt(p[:n], r.filePos); err != nil {
		return 0, err
	}
	r.filePos += n
	r.rec -= n
	r.off += uint64(n)
	return int(n), nil
}

// Close releases the reader's file handle.
func (r *Reader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}
