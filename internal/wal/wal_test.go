package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func crcOf(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// fill returns n deterministic pattern bytes offset by seed, so replay
// comparisons catch reordering as well as loss.
func fill(seed, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seed + i*7)
	}
	return p
}

func mustOpen(t *testing.T, dir string, opt Options) *Log {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

// readAll drains the journal from off and returns the payload bytes.
func readAll(t *testing.T, l *Log, off uint64) []byte {
	t.Helper()
	r, err := l.ReaderAt(off)
	if err != nil {
		t.Fatalf("ReaderAt(%d): %v", off, err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("reading journal from %d: %v", off, err)
	}
	return b
}

func TestAppendReadRoundTrip(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{SegmentBytes: 256})
	defer l.Close()
	var want []byte
	for i := 0; i < 40; i++ {
		p := fill(i, 11+i*3)
		off, err := l.Append(p)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if off != uint64(len(want)) {
			t.Fatalf("append %d: offset %d, want %d", i, off, len(want))
		}
		want = append(want, p...)
	}
	if l.End() != uint64(len(want)) {
		t.Fatalf("End() = %d, want %d", l.End(), len(want))
	}
	if l.Segments() < 2 {
		t.Fatalf("expected rotation across %d payload bytes with 256-byte segments, got %d segment", len(want), l.Segments())
	}
	if got := readAll(t, l, 0); !bytes.Equal(got, want) {
		t.Fatalf("full read mismatch: %d bytes vs %d", len(got), len(want))
	}
	// Mid-stream offsets, including ones landing inside records and on
	// segment boundaries.
	for _, off := range []uint64{1, 10, 11, 255, 256, 257, uint64(len(want)) - 1, uint64(len(want))} {
		if got := readAll(t, l, off); !bytes.Equal(got, want[off:]) {
			t.Fatalf("read from %d mismatch", off)
		}
	}
}

func TestReaderSeesLaterAppends(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{SegmentBytes: 128, NoSync: true})
	defer l.Close()
	first := fill(1, 50)
	l.Append(first)
	r, err := l.ReaderAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, 50)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(got[:1]); err != io.EOF {
		t.Fatalf("read at end: %v, want EOF", err)
	}
	second := fill(2, 300) // crosses a rotation
	l.Append(second)
	got2, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, second) {
		t.Fatalf("reader missed appended bytes: got %d, want %d", len(got2), len(second))
	}
}

func TestReopenPreservesStream(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 200})
	var want []byte
	for i := 0; i < 10; i++ {
		p := fill(i, 60)
		l.Append(p)
		want = append(want, p...)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, dir, Options{SegmentBytes: 200})
	defer l.Close()
	if l.End() != uint64(len(want)) {
		t.Fatalf("End after reopen = %d, want %d", l.End(), len(want))
	}
	if got := readAll(t, l, 0); !bytes.Equal(got, want) {
		t.Fatal("stream changed across reopen")
	}
	// And appends continue at the right offset.
	p := fill(99, 30)
	off, err := l.Append(p)
	if err != nil {
		t.Fatal(err)
	}
	if off != uint64(len(want)) {
		t.Fatalf("post-reopen append at %d, want %d", off, len(want))
	}
}

func TestTruncateRemovesWholeAckedSegments(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 100, NoSync: true})
	defer l.Close()
	var want []byte
	for i := 0; i < 8; i++ {
		p := fill(i, 100) // exactly one segment each after the first fills
		l.Append(p)
		want = append(want, p...)
	}
	segsBefore := l.Segments()
	if segsBefore < 3 {
		t.Fatalf("need several segments, got %d", segsBefore)
	}
	// Ack threshold mid-segment: only segments entirely below it go.
	removed, err := l.Truncate(250)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 200 {
		t.Fatalf("removed %d bytes, want 200 (two whole segments)", removed)
	}
	if l.Base() != 200 {
		t.Fatalf("Base = %d, want 200", l.Base())
	}
	if got := readAll(t, l, 200); !bytes.Equal(got, want[200:]) {
		t.Fatal("retained suffix changed after truncation")
	}
	if _, err := l.ReaderAt(100); err == nil {
		t.Fatal("ReaderAt below Base should fail")
	}
	// The active segment is never removed, whatever the threshold.
	if _, err := l.Truncate(1 << 30); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 1 {
		t.Fatalf("over-threshold truncate kept %d segments, want the active one", l.Segments())
	}
	if l.End() != uint64(len(want)) {
		t.Fatalf("End moved across truncation: %d", l.End())
	}
}

// lastSegPath returns the newest segment file in dir.
func lastSegPath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			last = filepath.Join(dir, e.Name())
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return last
}

// Torture taxonomy, mirroring the strict-decoder corruption tests in
// internal/token/blocks: each case damages the on-disk journal the way
// a specific crash (or bit rot) would, then asserts Open's verdict.

func TestTortureTruncatedTailRecord(t *testing.T) {
	for _, cut := range []int{1, recHdrLen - 1, recHdrLen, recHdrLen + 5} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, Options{SegmentBytes: 1 << 20})
			var want []byte
			for i := 0; i < 5; i++ {
				p := fill(i, 40)
				l.Append(p)
				want = append(want, p...)
			}
			l.Close()
			// A kill -9 mid-append leaves a partial record at the tail.
			path := lastSegPath(t, dir)
			info, _ := os.Stat(path)
			if err := os.Truncate(path, info.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}
			l = mustOpen(t, dir, Options{})
			defer l.Close()
			// Whole torn record dropped; earlier records intact.
			wantEnd := uint64(len(want) - 40)
			if cut <= 0 {
				wantEnd = uint64(len(want))
			}
			if l.End() != wantEnd {
				t.Fatalf("End after torn tail = %d, want %d", l.End(), wantEnd)
			}
			if got := readAll(t, l, 0); !bytes.Equal(got, want[:wantEnd]) {
				t.Fatal("retained prefix changed")
			}
			// The log must accept appends cleanly after recovery.
			if _, err := l.Append(fill(9, 40)); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, l, wantEnd); !bytes.Equal(got, fill(9, 40)) {
				t.Fatal("post-recovery append unreadable")
			}
		})
	}
}

func TestTortureFlippedCRCByte(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 1 << 20})
	var want []byte
	for i := 0; i < 4; i++ {
		p := fill(i, 64)
		l.Append(p)
		want = append(want, p...)
	}
	l.Close()
	// Flip one payload byte of the LAST record: tolerated as a torn
	// tail (the append crashed mid-payload-write after the header).
	path := lastSegPath(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-10] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, dir, Options{})
	if l.End() != uint64(len(want)-64) {
		t.Fatalf("End after flipped tail CRC = %d, want %d", l.End(), len(want)-64)
	}
	if got := readAll(t, l, 0); !bytes.Equal(got, want[:len(want)-64]) {
		t.Fatal("good prefix changed")
	}
	l.Close()

	// Flip a byte in the FIRST record of a sealed (non-tail) segment:
	// that is acknowledged-history corruption and must refuse to open.
	dir2 := t.TempDir()
	l = mustOpen(t, dir2, Options{SegmentBytes: 64})
	for i := 0; i < 4; i++ {
		l.Append(fill(i, 64)) // each append seals a segment behind it
	}
	l.Close()
	first := filepath.Join(dir2, segName(0))
	raw, err = os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[recHdrLen+3] ^= 0x01
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2, Options{}); err == nil {
		t.Fatal("Open accepted interior corruption")
	}
}

func TestTortureZeroLengthSegment(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 100})
	var want []byte
	for i := 0; i < 3; i++ {
		p := fill(i, 100)
		l.Append(p)
		want = append(want, p...)
	}
	l.Close()
	// A crash between rotation's create and the first append leaves an
	// empty newest segment — Open must treat it as "no bytes yet".
	empty := filepath.Join(dir, segName(uint64(len(want))))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, dir, Options{SegmentBytes: 100})
	if l.End() != uint64(len(want)) {
		t.Fatalf("End with empty tail segment = %d, want %d", l.End(), len(want))
	}
	if got := readAll(t, l, 0); !bytes.Equal(got, want) {
		t.Fatal("stream changed")
	}
	if _, err := l.Append(fill(7, 10)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// A zero-length record header (payLen 0) in the tail is
	// corrupt-length: truncate it away.
	dir2 := t.TempDir()
	l = mustOpen(t, dir2, Options{})
	l.Append(fill(0, 32))
	l.Close()
	path := lastSegPath(t, dir2)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var zero [recHdrLen]byte // payLen 0, crc 0
	f.Write(zero[:])
	f.Close()
	l = mustOpen(t, dir2, Options{})
	defer l.Close()
	if l.End() != 32 {
		t.Fatalf("End after zero-length record = %d, want 32", l.End())
	}
}

func TestTortureCrashDuringTruncation(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{SegmentBytes: 80, NoSync: true})
	var want []byte
	for i := 0; i < 6; i++ {
		p := fill(i, 80)
		l.Append(p)
		want = append(want, p...)
	}
	l.Close()

	// Simulate a truncation that died after unlinking only SOME of the
	// acked segments — including the out-of-order case where a later
	// segment vanished while an earlier one survived, leaving a gap.
	// Everything below a gap was acknowledged (or it could not have
	// been a truncation target), so recovery keeps the newest
	// contiguous suffix.
	os.Remove(filepath.Join(dir, segName(80)))  // gap: 0 survives, 80 gone
	os.Remove(filepath.Join(dir, segName(160))) // contiguous with the gap
	l = mustOpen(t, dir, Options{SegmentBytes: 80, NoSync: true})
	defer l.Close()
	if l.Base() != 240 {
		t.Fatalf("Base after gapped truncation crash = %d, want 240", l.Base())
	}
	if l.End() != uint64(len(want)) {
		t.Fatalf("End = %d, want %d", l.End(), len(want))
	}
	if got := readAll(t, l, 240); !bytes.Equal(got, want[240:]) {
		t.Fatal("suffix changed")
	}
	// The stray pre-gap segment is gone from disk too.
	if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
		t.Fatalf("stray segment survived recovery: %v", err)
	}
}

func TestAppendWhileReading(t *testing.T) {
	// Append/Truncate from one goroutine while a reader drains —
	// the durable binding's exact concurrency shape.
	l := mustOpen(t, t.TempDir(), Options{SegmentBytes: 256, NoSync: true})
	defer l.Close()
	const total = 20000
	var want []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		for len(want) < total {
			p := fill(len(want), 1+rng.Intn(200))
			if len(want)+len(p) > total {
				p = p[:total-len(want)]
			}
			l.Append(p)
			want = append(want, p...)
		}
	}()
	r, err := l.ReaderAt(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, 0, total)
	buf := make([]byte, 177)
	for len(got) < total {
		n, err := r.Read(buf)
		if err == io.EOF {
			continue
		}
		if err != nil {
			t.Fatalf("read at %d: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
		l.Truncate(uint64(len(got)))
	}
	<-done
	if !bytes.Equal(got, want) {
		t.Fatal("concurrent read diverged from appended stream")
	}
}

// FuzzOpenAfterDamage feeds arbitrary bytes as a segment file: Open
// must never panic, and whatever it retains must re-read cleanly and
// survive an append + reopen cycle.
func FuzzOpenAfterDamage(f *testing.F) {
	good := func(payloads ...[]byte) []byte {
		var b []byte
		for _, p := range payloads {
			var hdr [recHdrLen]byte
			binary.BigEndian.PutUint32(hdr[0:4], uint32(len(p)))
			binary.BigEndian.PutUint32(hdr[4:8], crcOf(p))
			b = append(b, hdr[:]...)
			b = append(b, p...)
		}
		return b
	}
	f.Add([]byte{})
	f.Add(good(fill(1, 20)))
	f.Add(good(fill(1, 20), fill(2, 300)))
	f.Add(good(fill(1, 20))[:25])                              // torn payload
	f.Add(append(good(fill(3, 40)), 0xff))                     // trailing junk
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3}) // absurd length
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{NoSync: true})
		if err != nil {
			return // rejected is a fine verdict; panicking is not
		}
		end := l.End()
		retained := readAll(t, l, 0)
		if uint64(len(retained)) != end {
			t.Fatalf("End %d but read %d bytes", end, len(retained))
		}
		p := fill(5, 33)
		if _, err := l.Append(p); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l.Close()
		l2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen after recovered append: %v", err)
		}
		defer l2.Close()
		got := readAll(t, l2, 0)
		if !bytes.Equal(got, append(retained, p...)) {
			t.Fatal("recovered stream not stable across reopen")
		}
	})
}

// FuzzRecordFraming round-trips arbitrary payload splits through
// Append/Reader and checks byte identity from every offset.
func FuzzRecordFraming(f *testing.F) {
	f.Add([]byte("hello"), uint8(3))
	f.Add(fill(0, 500), uint8(64))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		if chunk == 0 {
			chunk = 1
		}
		l, err := Open(t.TempDir(), Options{SegmentBytes: 128, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i := 0; i < len(data); i += int(chunk) {
			end := i + int(chunk)
			if end > len(data) {
				end = len(data)
			}
			if _, err := l.Append(data[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		if l.End() != uint64(len(data)) {
			t.Fatalf("End %d, want %d", l.End(), len(data))
		}
		for _, off := range []uint64{0, uint64(len(data)) / 2, uint64(len(data))} {
			got := readAll(t, l, off)
			if !bytes.Equal(got, data[off:]) {
				t.Fatalf("read from %d diverged", off)
			}
		}
	})
}
