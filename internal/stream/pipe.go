// Package stream provides the byte-transport layer for process-network
// channels: a bounded in-memory FIFO pipe with blocking reads and writes
// whose read end can go on, once drained, from a spliced continuation.
//
// The semantics mirror the Java implementation described in "Distributed
// Process Networks in Java" (Parks, Roberts, Millman; IPPS 2003):
//
//   - Reads block until at least one byte is available (Kahn's blocking
//     read rule, required for determinacy).
//   - Writes block when the buffer is full (bounded channels, required for
//     fair scheduling, §3.5 of the paper).
//   - Closing the read end poisons the write end: the next write fails
//     with ErrReadClosed (the paper's "exception upon the next write").
//   - Closing the write end lets the reader drain all buffered bytes and
//     then observe io.EOF (the paper's graceful downstream termination).
//   - The capacity can be grown at run time, which is how artificial
//     deadlock introduced by bounded buffers is resolved (§3.5, §6.2).
//   - A pipe can be given a continuation (Splice): once its write end is
//     closed and it has drained, reads go on from the continuation
//     instead of ending. This is the paper's SequenceInputStream, the
//     mechanism by which a process splices itself out (§3.3, Figure 10).
package stream

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"dpn/internal/obs"
)

// ErrReadClosed is returned by Pipe.Write after the read end has been
// closed. A process receiving this error should stop and close its own
// channels, propagating termination upstream (§3.4 of the paper).
var ErrReadClosed = errors.New("stream: read end closed")

// ErrWriteClosed is returned by Pipe.Write if the write end itself has
// already been closed.
var ErrWriteClosed = errors.New("stream: write end closed")

// DefaultCapacity is the buffer capacity used when NewPipe is given a
// non-positive capacity. It matches the spirit of the default buffer size
// of java.io.PipedInputStream used by the paper's LocalInputStream.
const DefaultCapacity = 1024

// Observer receives the pipe's scheduling transitions. It is used by the
// deadlock monitor, which needs to know when every process is blocked
// and nothing else: data moving between running parties is not a
// transition and is not reported, so a hand-off writes nothing outside
// the pipe. A party parked on a linked side (see Link) is a transport
// link, not a process: it is not reported blocked, only as a link wait.
type Observer interface {
	// PipeBlocked is called whenever a reader or writer parks on the pipe.
	PipeBlocked(p *Pipe, write bool)
	// PipeLinkWait is called when a transport link parks on a side it
	// drives, and again when it returns from that park. Neither moves a
	// process, but either can change what a deadlock pass over the pipe
	// sees: the park can leave a full channel, and the return ends a
	// wake the pass counts as pending.
	PipeLinkWait(p *Pipe, write bool)
	// PipeUnblocked is called once for each PipeBlocked, when the pipe
	// signals that party (data, space, growth or a close) — not when it
	// resumes. A party that has been signalled but not yet scheduled is
	// making progress, so an observer that counts Blocked minus
	// Unblocked sees only the parties nothing has woken.
	PipeUnblocked(p *Pipe, write bool)
}

// Pipe is a bounded FIFO byte queue connecting one producer to one
// consumer. It is the Go analog of the paper's LocalOutputStream /
// LocalInputStream pair layered under a Channel.
//
// A Pipe must not be copied after first use.
type Pipe struct {
	mu      sync.Mutex
	canRead sync.Cond
	canWrit sync.Cond

	buf []byte // ring buffer
	r   int    // next read index
	n   int    // bytes buffered

	// The data accounting — bytes ever written and read, and the most
	// ever buffered — is plain fields under mu, the lock every operation
	// already holds, so moving data writes to nothing shared with other
	// pipes. A collector reads them at scrape time (see Counts).
	written, read int64
	peak          int

	observer Observer
	ins      *Instruments

	// trace is the pending causal trace mark (0 = none). It rides
	// outside the mutex and is never touched by Read/Write, so causal
	// tracing costs the data hot path nothing; only trace-aware taps
	// (outbound links, pool dispatch) look at it, at chunk/task
	// granularity.
	trace atomic.Uint64

	// shape is the advisory element-shape hint (see HintShape). Like
	// trace, it lives outside the mutex and is ignored by Read/Write:
	// only token batch writers store it and only outbound links load
	// it, so the hint costs the data plane nothing.
	shape atomic.Uint32

	// blockedReaders/blockedWriters count the goroutines inside
	// cond.Wait; waitR/waitW count those of them not yet signalled, the
	// ones the observer has been told are blocked (see wakeOne).
	blockedReaders, blockedWriters int32
	waitR, waitW                   int32

	readClosed  bool
	writeClosed bool
	unbounded   bool // see Unbound
	linked      side // the sides a transport link drives; see Link

	// next is the continuation (see Splice): set once, under mu, and
	// read from once the write end is closed and the buffer is empty.
	// It is atomic so that the trace and shape paths of a pipe with no
	// continuation take no lock.
	next atomic.Pointer[Pipe]
}

// side is a set of a pipe's ends.
type side uint8

const (
	readSide side = 1 << iota
	writeSide
)

func sideOf(write bool) side {
	if write {
		return writeSide
	}
	return readSide
}

// NewPipe returns a pipe with the given buffer capacity. Non-positive
// capacities select DefaultCapacity.
func NewPipe(capacity int) *Pipe {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	p := &Pipe{buf: make([]byte, capacity)}
	p.canRead.L = &p.mu
	p.canWrit.L = &p.mu
	return p
}

// SetHooks installs the scheduling observer and the metrics block;
// either may be nil. It must be called before the pipe is shared
// between goroutines.
func (p *Pipe) SetHooks(o Observer, ins *Instruments) {
	p.mu.Lock()
	p.observer, p.ins = o, ins
	p.mu.Unlock()
}

// Link marks one side of the pipe (the writing side if write is set) as
// driven by a transport link instead of a process. The deadlock monitor
// counts processes, so from now on a party parked on that side is not
// reported blocked, only as a link wait; one already parked there is
// reported unblocked at once, which keeps the observer's count
// balanced. The mark is for good: a side bound to a transport is never
// handed back to a local process.
func (p *Pipe) Link(write bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := sideOf(write)
	if p.linked&s != 0 {
		return
	}
	p.linked |= s
	if o := p.observer; o != nil {
		waiting := p.waitR
		if write {
			waiting = p.waitW
		}
		for range waiting {
			o.PipeUnblocked(p, write)
		}
	}
}

// watcher returns the observer a party on one side reports its wakes
// to: none if a link drives that side.
func (p *Pipe) watcher(write bool) Observer {
	if p.linked&sideOf(write) != 0 {
		return nil
	}
	return p.observer
}

// Counts is a pipe's accounting at one instant. Blocks and Parks are
// zero unless the pipe has Instruments.
type Counts struct {
	Written, Read            int64 // bytes ever written and read
	Buffered, Peak, Capacity int64 // bytes buffered now, at most, and room for
	// Blocks counts the parties that ever parked, by op: those whose
	// park ended, which Parks.Durations counts, and those parked now.
	Blocks [2]int64
	Parks
}

// Counts reads the pipe's accounting under its lock, and whether the
// pipe has settled: it can move no more bytes — its read end is closed,
// or its write end is closed and nothing is left — and no party is
// parked on it, so no count will change again.
func (p *Pipe) Counts() (c Counts, settled bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c = Counts{Written: p.written, Read: p.read, Buffered: int64(p.n), Peak: int64(p.peak), Capacity: int64(len(p.buf))}
	if p.ins != nil {
		c.Parks = p.ins.counts()
		c.Blocks = [2]int64{int64(p.blockedReaders), int64(p.blockedWriters)}
		for op := range c.Blocks {
			for _, n := range c.Durations[op] {
				c.Blocks[op] += n
			}
		}
	}
	finished := p.readClosed || p.writeClosed && p.n == 0
	return c, finished && p.blockedReaders == 0 && p.blockedWriters == 0
}

// Cap reports the current buffer capacity.
func (p *Pipe) Cap() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}

// Len reports the number of buffered, unconsumed bytes.
func (p *Pipe) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Buffered reports the number of bytes a Read can deliver without
// blocking: the buffered ones, or, once the pipe has drained into its
// continuation, the continuation's. Batch decoders use it to size a
// drain that is guaranteed not to block and not to leave partially
// consumed state behind (migration safety: everything taken from the
// pipe in one call is fully converted before the call returns).
func (p *Pipe) Buffered() int {
	if next := p.continuation(); next != nil {
		return next.Buffered()
	}
	return p.Len()
}

// continuation returns the pipe reads go on from now: the spliced one,
// once the write end is closed and the buffer has drained; nil before
// that, or if none is spliced on.
func (p *Pipe) continuation() *Pipe {
	next := p.next.Load()
	if next == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == 0 && p.writeClosed && !p.readClosed {
		return next
	}
	return nil
}

// Splice makes src the pipe's continuation: once the write end is
// closed and every buffered byte has been read, Read goes on from src
// instead of returning io.EOF. A pipe that already has a continuation
// passes src on to it, so successive splices queue up end to end, each
// behind the one before. Splicing onto a pipe whose read end is closed
// closes src's read end at once, poisoning its writer (§3.4). The
// continuation must be in place before the write end closes, or a
// reader may see io.EOF first; core.SpliceOut keeps that order.
func (p *Pipe) Splice(src *Pipe) {
	p.mu.Lock()
	closed, next := p.readClosed, p.next.Load()
	if !closed && next == nil {
		p.next.Store(src)
	}
	p.mu.Unlock()
	switch {
	case closed:
		src.CloseRead()
	case next != nil:
		next.Splice(src)
	}
}

// BlockedWriters reports how many goroutines are currently blocked in
// Write waiting for space.
func (p *Pipe) BlockedWriters() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.blockedWriters)
}

// BlockedReaders reports how many goroutines are currently blocked in
// Read waiting for data.
func (p *Pipe) BlockedReaders() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.blockedReaders)
}

// Waits reads at one instant what a deadlock detector's channel walk
// needs. pending: some blocked reader or writer has already been
// signaled (its wake condition holds) but has not yet been
// rescheduled, so the pipe is still running — the blocked counters
// alone cannot tell a goroutine waiting on a condition from one about
// to resume. full: a writer is blocked and the buffer is full, the
// signature of artificial deadlock that capacity growth can resolve.
// capacity: the buffer's. onLink: a process is parked on the pipe
// while a transport link drives its other side — a reader waiting for
// bytes a link delivers, or a writer waiting for a link to take them.
// Whether that wait ends depends on another node, so a detector that
// sees only this one cannot judge it.
func (p *Pipe) Waits() (pending, full bool, capacity int, onLink bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pending = p.blockedWriters > 0 && (p.n < len(p.buf) || p.readClosed || p.writeClosed) ||
		p.blockedReaders > 0 && (p.n > 0 || p.writeClosed || p.readClosed)
	onLink = p.linked == writeSide && p.blockedReaders > 0 || p.linked == readSide && p.blockedWriters > 0
	return pending, p.blockedWriters > 0 && p.n == len(p.buf), len(p.buf), onLink
}

// Grow increases the buffer capacity to newCap and wakes blocked writers.
// Growing never discards data. Shrinking is not supported; a smaller
// newCap is ignored. It returns the resulting capacity.
func (p *Pipe) Grow(newCap int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.growLocked(newCap)
}

// Unbound lifts the capacity bound for the rest of the pipe's life: a
// write that finds the buffer full — including one already blocked —
// grows it by what it needs instead of waiting. It is for the moment a
// reader is being moved to another node: the reader is suspended, so
// nothing drains the buffer, yet the link feeding it must deliver
// everything still in flight before it can see the fence that ends the
// move. What arrives is bounded by the sender's credit window and
// leaves with the migration parcel.
func (p *Pipe) Unbound() {
	p.mu.Lock()
	p.unbounded = true
	p.wakeAll(true)
	p.mu.Unlock()
}

// growLocked is Grow with p.mu held.
func (p *Pipe) growLocked(newCap int) int {
	if newCap <= len(p.buf) {
		return len(p.buf)
	}
	nb := make([]byte, newCap)
	p.copyOut(nb)
	p.buf = nb
	p.r = 0
	p.wakeAll(true)
	p.ins.noteGrow(newCap)
	return newCap
}

// copyOut copies the buffered bytes, in FIFO order, into dst which must
// be at least p.n long. Caller holds p.mu.
func (p *Pipe) copyOut(dst []byte) {
	first := copy(dst, p.buf[p.r:min(p.r+p.n, len(p.buf))])
	if first < p.n {
		copy(dst[first:], p.buf[:p.n-first])
	}
}

// Drain atomically removes and returns all buffered bytes. Writers blocked
// on a full buffer are woken. It is used when migrating a channel.
func (p *Pipe) Drain() []byte {
	p.mu.Lock()
	out := make([]byte, p.n)
	p.copyOut(out)
	p.n = 0
	p.r = 0
	p.read += int64(len(out))
	p.wakeAll(true)
	ins := p.ins
	p.mu.Unlock()
	ins.trace(obs.EvRead, len(out))
	return out
}

// Write appends the bytes of b to the pipe, blocking while the buffer is
// full. It returns len(b) on success. If the read end is closed it
// returns the number of bytes accepted and ErrReadClosed; if the write
// end is closed it returns ErrWriteClosed.
func (p *Pipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	written, err := p.writeOne(b)
	p.finishWrite(written)
	return written, err
}

// WriteVec appends each buffer of bufs to the pipe in order under a
// single lock acquisition, blocking while the buffer is full exactly as
// Write does. A multi-part element (length header + payload) therefore
// costs one lock round trip and at most one reader wakeup instead of
// one per part. It returns the total number of bytes written.
func (p *Pipe) WriteVec(bufs ...[]byte) (int, error) {
	p.mu.Lock()
	total := 0
	var err error
	for _, b := range bufs {
		var n int
		n, err = p.writeOne(b)
		total += n
		if err != nil {
			break
		}
	}
	p.finishWrite(total)
	return total, err
}

// writeOne copies b into the ring buffer, blocking while full. The
// caller must hold p.mu and end the call with finishWrite.
func (p *Pipe) writeOne(b []byte) (int, error) {
	written := 0
	for len(b) > 0 {
		if p.writeClosed {
			return written, ErrWriteClosed
		}
		if p.readClosed {
			return written, ErrReadClosed
		}
		for p.n == len(p.buf) {
			if p.unbounded {
				p.growLocked(p.n + len(b))
				break
			}
			p.park(true)
			if p.writeClosed {
				return written, ErrWriteClosed
			}
			if p.readClosed {
				return written, ErrReadClosed
			}
		}
		// Copy as much as fits.
		space := len(p.buf) - p.n
		chunk := b
		if len(chunk) > space {
			chunk = chunk[:space]
		}
		w := (p.r + p.n) % len(p.buf)
		first := copy(p.buf[w:], chunk)
		if first < len(chunk) {
			copy(p.buf, chunk[first:])
		}
		p.n += len(chunk)
		p.written += int64(len(chunk))
		p.peak = max(p.peak, p.n)
		b = b[len(chunk):]
		written += len(chunk)
		// Wake-avoidance: a reader can only be parked when it found the
		// buffer empty, so the cond op is skipped entirely unless one is
		// waiting unsignalled, and one signal suffices — a woken reader
		// drains whatever is available and hands the baton on.
		if p.waitR > 0 {
			p.wakeOne(false)
		}
	}
	return written, nil
}

// finishWrite ends a Write/WriteVec that wrote written bytes: it hands
// the baton to another blocked writer if space remains (Signal wakes
// only one, so liveness with several producers needs the chain),
// releases the lock, and only then traces the write, off the critical
// section of the data hot path.
func (p *Pipe) finishWrite(written int) {
	if p.waitW > 0 && p.n < len(p.buf) {
		p.wakeOne(true)
	}
	ins := p.ins
	p.mu.Unlock()
	if written > 0 {
		ins.trace(obs.EvWrite, written)
	}
}

// Read fills b with up to len(b) buffered bytes, blocking until at least
// one byte is available. When the write end has been closed and the
// buffer is empty it goes on from the continuation (see Splice), or
// returns io.EOF if there is none; after CloseRead it returns
// ErrReadClosed. Reads never return (0, nil): the blocking-read rule of
// Kahn's model is enforced here. A read that finds data tells the
// observer nothing: only parking and being signalled are scheduling
// transitions.
func (p *Pipe) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	p.mu.Lock()
	for p.n == 0 {
		if p.readClosed {
			p.mu.Unlock()
			return 0, ErrReadClosed
		}
		if p.writeClosed {
			next := p.next.Load()
			p.mu.Unlock()
			if next != nil {
				return next.Read(b)
			}
			return 0, io.EOF
		}
		p.park(false)
	}
	n := p.n
	if n > len(b) {
		n = len(b)
	}
	first := copy(b[:n], p.buf[p.r:min(p.r+p.n, len(p.buf))])
	if first < n {
		copy(b[first:n], p.buf)
	}
	p.r = (p.r + n) % len(p.buf)
	p.n -= n
	p.read += int64(n)
	if p.n == 0 {
		p.r = 0
	}
	// Wake-avoidance: skip the cond op unless a writer is parked
	// unsignalled; wake one — it fills the freed space and finishWrite
	// chains the baton to the next writer if space remains.
	if p.waitW > 0 {
		p.wakeOne(true)
	}
	// Baton for additional readers: one wake is one reader, so if bytes
	// remain and another reader is parked, pass the wake along.
	if p.n > 0 && p.waitR > 0 {
		p.wakeOne(false)
	}
	ins := p.ins
	p.mu.Unlock()
	ins.trace(obs.EvRead, n) // off the critical section
	return n, nil
}

// CloseWrite closes the write end. Buffered data remains readable; after
// it drains, readers observe io.EOF. Closing twice is a no-op.
func (p *Pipe) CloseWrite() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.writeClosed {
		return nil
	}
	p.writeClosed = true
	p.wakeAll(false)
	p.wakeAll(true)
	return nil
}

// CloseRead closes the read end, and the continuation's if one is
// spliced on. Subsequent and blocked writes fail with ErrReadClosed,
// and reads with it too; buffered data is discarded. Closing twice is a
// no-op.
func (p *Pipe) CloseRead() error {
	p.mu.Lock()
	if p.readClosed {
		p.mu.Unlock()
		return nil
	}
	p.readClosed = true
	p.n = 0
	p.r = 0
	p.wakeAll(false)
	p.wakeAll(true)
	next := p.next.Load()
	p.mu.Unlock()
	if next != nil {
		return next.CloseRead()
	}
	return nil
}

// park waits, with p.mu held, until the caller — a party on one side
// (the writing side if write is set) — is signalled. A process's park is
// reported blocked; wakeOne or wakeAll reports it unblocked. A link's
// park, and its return from the park, are each reported as a link wait.
func (p *Pipe) park(write bool) {
	cond, blocked, waiting := &p.canRead, &p.blockedReaders, &p.waitR
	if write {
		cond, blocked, waiting = &p.canWrit, &p.blockedWriters, &p.waitW
	}
	*blocked++
	*waiting++
	t0 := p.ins.noteBlock(write)
	if o := p.observer; o != nil {
		if p.linked&sideOf(write) != 0 {
			o.PipeLinkWait(p, write)
		} else {
			o.PipeBlocked(p, write)
		}
	}
	cond.Wait()
	*blocked--
	p.ins.noteUnblock(write, t0)
	if o := p.observer; o != nil && p.linked&sideOf(write) != 0 {
		o.PipeLinkWait(p, write)
	}
}

// wakeOne signals the longest-parked unsignalled party on one side
// (writers if write is set), with p.mu held. sync.Cond wakes waiters in
// the order they parked and never signals one twice, so waitR/waitW
// mirror exactly the waiters the cond has not woken yet.
//
// The observer hears of the wake here rather than when the party runs:
// from its signal on, a party is making progress. That keeps
// Blocked() >= Live() — the deadlock monitor's trigger — false for as
// long as any hand-off is in flight, so a wake is not spent on every
// one of them.
func (p *Pipe) wakeOne(write bool) {
	if write {
		p.waitW--
		p.canWrit.Signal()
	} else {
		p.waitR--
		p.canRead.Signal()
	}
	if o := p.watcher(write); o != nil {
		o.PipeUnblocked(p, write)
	}
}

// wakeAll signals every unsignalled party on one side, reporting each
// to the observer once. With p.mu held.
func (p *Pipe) wakeAll(write bool) {
	cond, waiting := &p.canRead, &p.waitR
	if write {
		cond, waiting = &p.canWrit, &p.waitW
	}
	if *waiting == 0 {
		return // every parked party has been signalled already
	}
	cond.Broadcast()
	o := p.watcher(write)
	for *waiting > 0 {
		*waiting--
		if o != nil {
			o.PipeUnblocked(p, write)
		}
	}
}

// ReadClosed reports whether the read end has been closed.
func (p *Pipe) ReadClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readClosed
}

// WriteClosed reports whether the write end has been closed.
func (p *Pipe) WriteClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writeClosed
}

// MarkTrace tags the data currently flowing through the pipe with a
// sampled causal trace ID (0 is ignored — "not sampled"). The mark is a
// best-effort single slot: a later mark overwrites an untaken earlier
// one, which is fine because sampling only needs *some* batches
// traced, not all.
func (p *Pipe) MarkTrace(id uint64) {
	if id != 0 {
		p.trace.Store(id)
	}
}

// TakeTraceMark removes and returns the pending trace mark, or 0. Once
// the pipe has drained into its continuation, an unmarked pipe hands
// the continuation's mark on. The unmarked case of a pipe with no
// continuation — virtually every call — is two atomic loads.
func (p *Pipe) TakeTraceMark() uint64 {
	if p.trace.Load() != 0 {
		return p.trace.Swap(0)
	}
	if next := p.continuation(); next != nil {
		return next.TakeTraceMark()
	}
	return 0
}

// HintShape records an advisory hint about the shape of the elements
// currently flowing through the pipe (the values are the
// token/blocks Shape constants: 0 none, 1 int64 runs, 2 float64
// runs). The hint carries no correctness weight — it only steers the
// wire compressor toward the right trial encoding — so it is a plain
// last-writer-wins atomic with no relation to byte positions, and a
// stale or missing hint merely costs compression ratio, never data.
func (p *Pipe) HintShape(s uint32) { p.shape.Store(s) }

// ShapeHint returns the current advisory element-shape hint: the
// continuation's once the pipe has drained into one.
func (p *Pipe) ShapeHint() uint32 {
	if next := p.continuation(); next != nil {
		return next.ShapeHint()
	}
	return p.shape.Load()
}

// WriteHalf is the pipe's write half: an io.WriteCloser whose Close
// maps to CloseWrite, carrying the pipe's sink-side hooks (vectored
// writes, trace marks, shape hints, Unbound) as plain methods.
type WriteHalf struct{ p *Pipe }

func (w WriteHalf) Write(b []byte) (int, error)          { return w.p.Write(b) }
func (w WriteHalf) WriteVec(bufs ...[]byte) (int, error) { return w.p.WriteVec(bufs...) }
func (w WriteHalf) MarkTrace(id uint64)                  { w.p.MarkTrace(id) }
func (w WriteHalf) HintShape(s uint32)                   { w.p.HintShape(s) }
func (w WriteHalf) Unbound()                             { w.p.Unbound() }
func (w WriteHalf) Close() error                         { return w.p.CloseWrite() }

// ReadHalf is the pipe's read half: an io.ReadCloser whose Close maps
// to CloseRead, carrying the pipe's source-side hooks (Buffered, trace
// marks, shape hints) as plain methods.
type ReadHalf struct{ p *Pipe }

func (r ReadHalf) Read(b []byte) (int, error) { return r.p.Read(b) }
func (r ReadHalf) Buffered() int              { return r.p.Buffered() }
func (r ReadHalf) TakeTraceMark() uint64      { return r.p.TakeTraceMark() }
func (r ReadHalf) ShapeHint() uint32          { return r.p.ShapeHint() }
func (r ReadHalf) Close() error               { return r.p.CloseRead() }

// WriteEnd returns the pipe's write half.
func (p *Pipe) WriteEnd() WriteHalf { return WriteHalf{p} }

// ReadEnd returns the pipe's read half.
func (p *Pipe) ReadEnd() ReadHalf { return ReadHalf{p} }
