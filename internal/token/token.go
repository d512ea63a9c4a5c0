// Package token layers typed data elements over the raw byte streams
// that process-network channels carry. It plays the role that
// java.io.DataInputStream/DataOutputStream and ObjectInputStream/
// ObjectOutputStream play in the Java implementation (§3.1 of the paper):
// higher-level formatting is performed inside a process, so the channel
// itself remains a type-independent stream of bytes and processes such as
// Duplicate and Cons can copy bytes without understanding them.
//
// Fixed-width values use big-endian encoding. Variable-width values
// (byte blocks, gob-encoded objects) are length-prefixed with a uint32.
//
// Object values deliberately use one self-contained gob message per
// element rather than a long-lived gob stream. A long-lived gob stream
// carries type definitions once, at the start; if the consuming process
// later migrates to another machine, the new decoder would be missing
// that state. Per-message encoding keeps every element independently
// decodable, so channels stay migratable at any element boundary. This
// is the central "gob workaround" required by the Go port.
package token

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sync"

	"dpn/internal/token/blocks"
)

// MaxBlockSize bounds the length prefix of blocks and objects to guard
// against corrupted streams.
const MaxBlockSize = 1 << 26 // 64 MiB

// stageMax bounds the reusable staging buffer a Writer or Reader holds
// on to between calls. Elements larger than this either go through the
// sink's vectored write path or a transient buffer — a single huge
// block must not pin memory for the lifetime of the codec.
const stageMax = 64 * 1024

// growStage returns a buffer of exactly n bytes (n <= stageMax) backed
// by stage when it is large enough. Otherwise it allocates one that at
// least doubles stage's capacity, so a codec that lives as long as its
// port settles on the largest batch it has seen after O(log) growths
// and a codec that never batches never owns a buffer at all.
func growStage(stage []byte, n int) []byte {
	if cap(stage) >= n {
		return stage[:n]
	}
	c := 2 * cap(stage)
	if c < n {
		c = n
	}
	if c > stageMax {
		c = stageMax
	}
	return make([]byte, n, c)
}

// poolBufMax bounds the capacity of gob scratch buffers returned to the
// shared pools; oversized one-off encodings are dropped instead of
// pinned.
const poolBufMax = 1 << 20

// Reader decodes typed elements from a byte stream. Every method blocks
// until the full element has arrived, preserving Kahn blocking-read
// semantics at element granularity.
//
// A Reader is meant to live as long as the stream it wraps (a channel
// port keeps one; see core.ReadPort.Tokens). What it holds between
// calls is scratch only: every byte a call takes from the source is
// converted and returned before the call returns, so the source can be
// cut, drained, or re-wrapped at any element boundary without asking
// the Reader for anything.
type Reader struct {
	r       io.Reader
	br      bufferedReader
	noter   tokenNoter
	scratch [8]byte
	stage   []byte
}

// tokenNoter is implemented by channel ports (core.ReadPort and
// core.WritePort): each call records k successfully transferred
// elements on the channel's token counter, giving the observability
// layer element granularity on top of the byte counters, and a batch
// one counter operation instead of k.
type tokenNoter interface{ NoteTokens(k int) }

// vecWriter is a sink that accepts a multi-part element as one
// operation (a pipe's write half, a write port).
type vecWriter interface {
	WriteVec(bufs ...[]byte) (int, error)
}

// bufferedReader is a source that reports how many bytes are readable
// without blocking (a pipe's read half, a read port); batch decoders
// use it to bound a non-blocking drain.
type bufferedReader interface{ Buffered() int }

// shapeHinter is a sink that carries an advisory element-shape hint
// toward a transport binding (a pipe's write half, a write port).
type shapeHinter interface{ HintShape(s uint32) }

// NewReader returns a typed reader over r.
func NewReader(r io.Reader) *Reader {
	d := &Reader{r: r}
	d.br, _ = r.(bufferedReader)
	d.noter, _ = r.(tokenNoter)
	return d
}

// noteN records k decoded elements. Only the leaf element readers call
// it, so composites (ReadObject over ReadBlock, ReadInt64 over
// ReadUint64) count each element exactly once.
func (d *Reader) noteN(k int) {
	if d.noter != nil {
		d.noter.NoteTokens(k)
	}
}

// stageBuf returns a buffer of exactly n bytes, reusing the Reader's
// staging buffer when n is within stageMax and allocating a transient
// one otherwise.
func (d *Reader) stageBuf(n int) []byte {
	if n > stageMax {
		return make([]byte, n)
	}
	d.stage = growStage(d.stage, n)
	return d.stage
}

// drainable reports how many further fixed-width elements of size w can
// be read right now without blocking, capped at max and at the staging
// buffer size. Only bytes already buffered in the source are counted,
// so a batch read never retains partially consumed state — everything
// it takes is fully converted before the call returns (the property
// channel migration relies on).
func (d *Reader) drainable(max, w int) int {
	if d.br == nil || max <= 0 {
		return 0
	}
	k := d.br.Buffered() / w
	if k > max {
		k = max
	}
	if k*w > stageMax {
		k = stageMax / w
	}
	return k
}

// ReadInt64 reads one big-endian int64 element.
func (d *Reader) ReadInt64() (int64, error) {
	u, err := d.ReadUint64()
	return int64(u), err
}

// ReadUint64 reads one big-endian uint64 element.
func (d *Reader) ReadUint64() (uint64, error) {
	if _, err := io.ReadFull(d.r, d.scratch[:8]); err != nil {
		return 0, noUnexpected(err)
	}
	d.noteN(1)
	return binary.BigEndian.Uint64(d.scratch[:8]), nil
}

// ReadInt32 reads one big-endian int32 element.
func (d *Reader) ReadInt32() (int32, error) {
	if _, err := io.ReadFull(d.r, d.scratch[:4]); err != nil {
		return 0, noUnexpected(err)
	}
	d.noteN(1)
	return int32(binary.BigEndian.Uint32(d.scratch[:4])), nil
}

// ReadFloat64 reads one IEEE-754 float64 element.
func (d *Reader) ReadFloat64() (float64, error) {
	u, err := d.ReadUint64()
	return math.Float64frombits(u), err
}

// ReadInt64s reads between 1 and len(dst) int64 elements into dst and
// returns how many it read. The first element is read with the usual
// blocking semantics (Kahn's blocking-read rule); additional elements
// are taken only if their bytes are already buffered in the source, so
// the call never blocks waiting to fill dst. The element values and
// order are exactly those of repeated ReadInt64 calls — only the
// per-call batching varies with buffering, like io.Reader short reads.
func (d *Reader) ReadInt64s(dst []int64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if _, err := io.ReadFull(d.r, d.scratch[:8]); err != nil {
		return 0, noUnexpected(err)
	}
	dst[0] = int64(binary.BigEndian.Uint64(d.scratch[:8]))
	n := 1
	if k := d.drainable(len(dst)-1, 8); k > 0 {
		st := d.stageBuf(k * 8)
		if _, err := io.ReadFull(d.r, st); err != nil {
			d.noteN(n)
			return n, corrupt(err)
		}
		for i := 0; i < k; i++ {
			dst[n+i] = int64(binary.BigEndian.Uint64(st[i*8:]))
		}
		n += k
	}
	d.noteN(n)
	return n, nil
}

// ReadFloat64s is ReadInt64s for float64 elements.
func (d *Reader) ReadFloat64s(dst []float64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if _, err := io.ReadFull(d.r, d.scratch[:8]); err != nil {
		return 0, noUnexpected(err)
	}
	dst[0] = math.Float64frombits(binary.BigEndian.Uint64(d.scratch[:8]))
	n := 1
	if k := d.drainable(len(dst)-1, 8); k > 0 {
		st := d.stageBuf(k * 8)
		if _, err := io.ReadFull(d.r, st); err != nil {
			d.noteN(n)
			return n, corrupt(err)
		}
		for i := 0; i < k; i++ {
			dst[n+i] = math.Float64frombits(binary.BigEndian.Uint64(st[i*8:]))
		}
		n += k
	}
	d.noteN(n)
	return n, nil
}

// ReadBool reads one boolean element (a single byte; nonzero is true).
func (d *Reader) ReadBool() (bool, error) {
	if _, err := io.ReadFull(d.r, d.scratch[:1]); err != nil {
		return false, noUnexpected(err)
	}
	d.noteN(1)
	return d.scratch[0] != 0, nil
}

// ReadByte reads one raw byte element.
func (d *Reader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(d.r, d.scratch[:1]); err != nil {
		return 0, noUnexpected(err)
	}
	d.noteN(1)
	return d.scratch[0], nil
}

// ReadBlock reads one length-prefixed byte block into a freshly
// allocated slice the caller owns. Loops that can recycle a buffer
// should use ReadBlockBuf instead.
func (d *Reader) ReadBlock() ([]byte, error) {
	return d.ReadBlockBuf(nil)
}

// ReadBlockBuf reads one length-prefixed byte block, reusing dst's
// capacity when it suffices and allocating otherwise. It returns the
// block aliased into (or replacing) dst, so a decode loop amortizes the
// per-block allocation to zero:
//
//	var buf []byte
//	for {
//		buf, err = r.ReadBlockBuf(buf)
//		...
//	}
func (d *Reader) ReadBlockBuf(dst []byte) ([]byte, error) {
	if _, err := io.ReadFull(d.r, d.scratch[:4]); err != nil {
		return nil, noUnexpected(err)
	}
	n := int(binary.BigEndian.Uint32(d.scratch[:4]))
	if n > MaxBlockSize {
		return nil, fmt.Errorf("token: block of %d bytes exceeds limit", n)
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	b := dst[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return nil, corrupt(err)
	}
	d.noteN(1)
	return b, nil
}

// objScratch is the pooled per-decode machinery of ReadObject: the
// block buffer and the bytes.Reader the gob decoder drains. The gob
// decoder itself is deliberately NOT pooled — every element must be a
// self-contained gob message (see the package comment), and a reused
// decoder would carry type state across elements.
type objScratch struct {
	buf []byte
	rd  bytes.Reader
}

var objPool = sync.Pool{New: func() any { return new(objScratch) }}

// ReadObject reads one gob-encoded object into v (a non-nil pointer).
// The element must have been written by Writer.WriteObject.
func (d *Reader) ReadObject(v any) error {
	if _, err := io.ReadFull(d.r, d.scratch[:4]); err != nil {
		return noUnexpected(err)
	}
	n := int(binary.BigEndian.Uint32(d.scratch[:4]))
	if n > MaxBlockSize {
		return fmt.Errorf("token: block of %d bytes exceeds limit", n)
	}
	sc := objPool.Get().(*objScratch)
	if cap(sc.buf) < n {
		sc.buf = make([]byte, n)
	}
	b := sc.buf[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		objPool.Put(sc)
		return corrupt(err)
	}
	d.noteN(1)
	sc.rd.Reset(b)
	err := gob.NewDecoder(&sc.rd).Decode(v)
	sc.rd.Reset(nil)
	if cap(sc.buf) <= poolBufMax {
		objPool.Put(sc)
	}
	return err
}

// ReadString reads one length-prefixed UTF-8 string element.
func (d *Reader) ReadString() (string, error) {
	b, err := d.ReadBlock()
	return string(b), err
}

// noUnexpected converts io.ErrUnexpectedEOF at the *start* of an element
// read into plain io.EOF — an element boundary is a legitimate stream
// end. io.ReadFull only returns ErrUnexpectedEOF when some bytes were
// read, so a truncation mid-element still surfaces as ErrUnexpectedEOF.
func noUnexpected(err error) error { return err }

// corrupt marks an error that happened mid-element.
func corrupt(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Writer encodes typed elements onto a byte stream. Every element —
// fixed-width, block, string, or object — reaches the sink as exactly
// one underlying write: multi-part elements are staged into a reusable
// buffer (or handed to the sink's vectored write), so a failure between
// sink operations can never leave a torn element on a transport.
//
// Like Reader, a Writer lives as long as its sink and holds scratch
// only: an element is in the sink before its Write call returns —
// nothing is written behind, so a staging buffer never adds capacity
// to a bounded channel.
type Writer struct {
	w       io.Writer
	vw      vecWriter
	noter   tokenNoter
	hinter  shapeHinter
	hinted  blocks.Shape
	scratch [8]byte
	stage   []byte
}

// NewWriter returns a typed writer over w.
func NewWriter(w io.Writer) *Writer {
	e := &Writer{w: w}
	e.vw, _ = w.(vecWriter)
	e.noter, _ = w.(tokenNoter)
	e.hinter, _ = w.(shapeHinter)
	return e
}

// hint stamps the sink with the advisory element-shape of the batch
// paths (see blocks.Shape). Only the batch writers call it — the
// singular 8-byte fast path must stay hint-free — and the stamp is
// cached per Writer so a long-lived batch producer pays one atomic
// store total, not one per call.
func (e *Writer) hint(s blocks.Shape) {
	if e.hinter == nil || e.hinted == s {
		return
	}
	e.hinted = s
	e.hinter.HintShape(uint32(s))
}

// note records one encoded element if err is nil (leaf writers only;
// see Reader.noteN).
func (e *Writer) note(err error) error {
	if err == nil {
		e.noteN(1)
	}
	return err
}

// noteN records k encoded elements.
func (e *Writer) noteN(k int) {
	if e.noter != nil {
		e.noter.NoteTokens(k)
	}
}

// stageBuf returns a buffer of exactly n bytes, reusing the Writer's
// staging buffer when n is within stageMax and allocating a transient
// one otherwise.
func (e *Writer) stageBuf(n int) []byte {
	if n > stageMax {
		return make([]byte, n)
	}
	e.stage = growStage(e.stage, n)
	return e.stage
}

// WriteInt64 writes one big-endian int64 element.
func (e *Writer) WriteInt64(v int64) error { return e.WriteUint64(uint64(v)) }

// WriteUint64 writes one big-endian uint64 element.
func (e *Writer) WriteUint64(v uint64) error {
	binary.BigEndian.PutUint64(e.scratch[:8], v)
	_, err := e.w.Write(e.scratch[:8])
	return e.note(err)
}

// WriteInt32 writes one big-endian int32 element.
func (e *Writer) WriteInt32(v int32) error {
	binary.BigEndian.PutUint32(e.scratch[:4], uint32(v))
	_, err := e.w.Write(e.scratch[:4])
	return e.note(err)
}

// WriteFloat64 writes one IEEE-754 float64 element.
func (e *Writer) WriteFloat64(v float64) error {
	return e.WriteUint64(math.Float64bits(v))
}

// WriteBool writes one boolean element.
func (e *Writer) WriteBool(v bool) error {
	e.scratch[0] = 0
	if v {
		e.scratch[0] = 1
	}
	_, err := e.w.Write(e.scratch[:1])
	return e.note(err)
}

// WriteByte writes one raw byte element.
func (e *Writer) WriteByte(b byte) error {
	e.scratch[0] = b
	_, err := e.w.Write(e.scratch[:1])
	return e.note(err)
}

// WriteInt64s writes the elements of vs in order, staging runs of them
// into single sink writes. Observable semantics match a loop of
// WriteInt64 calls; only the write (and wakeup) count differs.
func (e *Writer) WriteInt64s(vs []int64) error {
	e.hint(blocks.ShapeInt64)
	for len(vs) > 0 {
		k := len(vs)
		if k*8 > stageMax {
			k = stageMax / 8
		}
		st := e.stageBuf(k * 8)
		for i, v := range vs[:k] {
			binary.BigEndian.PutUint64(st[i*8:], uint64(v))
		}
		if _, err := e.w.Write(st); err != nil {
			return err
		}
		e.noteN(k)
		vs = vs[k:]
	}
	return nil
}

// WriteFloat64s is WriteInt64s for float64 elements.
func (e *Writer) WriteFloat64s(vs []float64) error {
	e.hint(blocks.ShapeFloat64)
	for len(vs) > 0 {
		k := len(vs)
		if k*8 > stageMax {
			k = stageMax / 8
		}
		st := e.stageBuf(k * 8)
		for i, v := range vs[:k] {
			binary.BigEndian.PutUint64(st[i*8:], math.Float64bits(v))
		}
		if _, err := e.w.Write(st); err != nil {
			return err
		}
		e.noteN(k)
		vs = vs[k:]
	}
	return nil
}

// WriteBlock writes one length-prefixed byte block as a single sink
// write: small blocks are staged (header + payload) into the reusable
// buffer; large blocks go through the sink's vectored write when it has
// one, avoiding the copy, and are staged transiently otherwise.
func (e *Writer) WriteBlock(b []byte) error {
	if len(b) > MaxBlockSize {
		return fmt.Errorf("token: block of %d bytes exceeds limit", len(b))
	}
	if len(b)+4 > stageMax && e.vw != nil {
		binary.BigEndian.PutUint32(e.scratch[:4], uint32(len(b)))
		_, err := e.vw.WriteVec(e.scratch[:4], b)
		return e.note(err)
	}
	st := e.stageBuf(len(b) + 4)
	binary.BigEndian.PutUint32(st, uint32(len(b)))
	copy(st[4:], b)
	_, err := e.w.Write(st)
	return e.note(err)
}

// encPad reserves the length prefix at the front of a pooled encode
// buffer so header and gob payload leave in one write.
var encPad [4]byte

var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteObject writes v as one self-contained gob message (see the
// package comment for why each element is independently encoded). The
// encode buffer is pooled and the length prefix is backfilled in place,
// so the element costs one sink write and no per-call buffer
// allocation.
func (e *Writer) WriteObject(v any) error {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= poolBufMax {
			encBufPool.Put(buf)
		}
	}()
	buf.Reset()
	buf.Write(encPad[:])
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	msg := buf.Bytes()
	n := len(msg) - 4
	if n > MaxBlockSize {
		return fmt.Errorf("token: block of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(msg[:4], uint32(n))
	_, err := e.w.Write(msg)
	return e.note(err)
}

// WriteString writes one length-prefixed UTF-8 string element as a
// single sink write (see WriteBlock).
func (e *Writer) WriteString(s string) error {
	if len(s) > MaxBlockSize {
		return fmt.Errorf("token: block of %d bytes exceeds limit", len(s))
	}
	st := e.stageBuf(len(s) + 4)
	binary.BigEndian.PutUint32(st, uint32(len(s)))
	copy(st[4:], s)
	_, err := e.w.Write(st)
	return e.note(err)
}

// Int64Size is the encoded size of an int64 element in bytes. Processes
// such as Cons that copy whole elements without interpreting them need
// the element width (the paper's byte-oriented Cons copies byte
// elements; our typed examples use 8-byte elements).
const Int64Size = 8

// Float64Size is the encoded size of a float64 element in bytes.
const Float64Size = 8

// AppendInt64 appends the encoding of one int64 element to b.
func AppendInt64(b []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(v))
}

// AppendFloat64 appends the encoding of one float64 element to b.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}
