package netio

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dpn/internal/token/blocks"
)

// chunkSize is the outbound link's base read granularity.
const chunkSize = 32 * 1024

// coalesceMax caps a DATA frame's payload: the source reader pulls up
// to this much per pipe read, and the sender merges chunks already
// queued behind it up to the same cap — coalescing that never waits for
// more data, so only the frame count changes.
const coalesceMax = 4 * chunkSize

// chunkPool recycles outbound chunk buffers and the buffers of the
// streams' inboxes. Each holds one frame of the largest size: an
// outbound chunk reserves frameHdrLen bytes of headroom before its data,
// so a DATA frame's header and payload leave in a single write.
var chunkPool = sync.Pool{
	New: func() any {
		b := make([]byte, frameHdrLen+coalesceMax)
		return &b
	},
}

func getChunkBuf() *[]byte  { return chunkPool.Get().(*[]byte) }
func putChunkBuf(b *[]byte) { chunkPool.Put(b) }

// outChunk is one run of source bytes staged for the wire. data aliases
// (*orig)[start:], a pooled buffer with at least frameHdrLen bytes of
// headroom before start, which returns to the pool once the chunk is
// acknowledged (until then it may be replayed; see replayQueue).
type outChunk struct {
	data  []byte
	start int     // offset of data[0] within *orig; always >= frameHdrLen
	orig  *[]byte // pooled backing buffer
}

func (c *outChunk) release() {
	if c.orig != nil {
		putChunkBuf(c.orig)
	}
	*c = outChunk{}
}

// room reports how many more bytes fit behind c's data in its buffer
// without the chunk outgrowing limit. c.orig must be set.
func (c *outChunk) room(limit int) int {
	return min(limit-len(c.data), len(*c.orig)-(c.start+len(c.data)))
}

// absorb appends d's bytes to c in place; the caller checked room and
// still owns d's buffer.
func (c *outChunk) absorb(d outChunk) {
	tail := c.start + len(c.data)
	copy((*c.orig)[tail:], d.data)
	c.data = (*c.orig)[c.start : tail+len(d.data)]
}

// compressMin is the smallest DATA payload worth a compression trial:
// below it the trial's scan costs more than the bytes it saves.
const compressMin = 256

// DefaultWindow is the flow-control window of a link created with a
// non-positive one: at most this many unacknowledged bytes in flight.
const DefaultWindow = 256 * 1024

// rendezvousTimeout bounds how long link setup waits for the peer.
const rendezvousTimeout = 60 * time.Second

// ErrLinkDeadline is returned when an outage outlasts the link's
// LinkDeadline and the link degrades into a cascading close. Part of
// the consolidated sentinel set in internal/conduit/errs.go.
var ErrLinkDeadline = errors.New("netio: link deadline exceeded")

// ErrWrongDirection is returned by Redirect on an inbound link and Move
// on an outbound one — API misuse, never transient. Part of the
// consolidated sentinel set in internal/conduit/errs.go.
var ErrWrongDirection = errors.New("netio: operation requires the other link direction")

// ErrNotConnected is returned by a control operation that needs a live
// connection while the link has none (an outage, or the stream ended).
// Part of the consolidated sentinel set in internal/conduit/errs.go.
var ErrNotConnected = errors.New("netio: link not connected")

// ErrTruncated is the terminal error, wrapped with its cause, of an
// inbound link whose connection ended before the sender's final frame
// and whose retry policy could not resume it. The local reader is still
// closed so the graph terminates (§3.4), but what it drained is a
// prefix of the stream, never to be taken for a clean end. Part of the
// consolidated sentinel set in internal/conduit/errs.go.
var ErrTruncated = errors.New("netio: stream ended before the sender's final frame")

// Resilience is a broker's retry policy. It does not change the wire —
// every link speaks the one resumable protocol — so peers with
// different policies interoperate; it only decides what a link does
// when the session under it dies. With a positive LinkDeadline the
// outage is healed: the dialer side re-dials with jittered exponential
// backoff, the serving side re-arms its rendezvous token, and the
// RESUME exchange replays whatever the outage swallowed. An outage that
// outlasts LinkDeadline — under the zero policy, any outage — degrades
// into the cascading close: the local channel end is poisoned and the
// process network terminates instead of hanging. HeartbeatEvery and
// MissDeadline tune the broker's sessions (see newSession); zero selects
// the session defaults.
type Resilience struct {
	// HeartbeatEvery is the session's PING interval, sent in both
	// directions so either side can detect a dead peer.
	HeartbeatEvery time.Duration
	// MissDeadline is how long a session may stay silent, or a write
	// may stall, before the peer is declared dead; it also bounds each
	// side's wait for the other half of the opening RESUME exchange.
	MissDeadline time.Duration
	// RetryBase is the first reconnect backoff; it doubles per attempt.
	RetryBase time.Duration
	// RetryMax caps the reconnect backoff.
	RetryMax time.Duration
	// LinkDeadline bounds one outage: a link that cannot resynchronize
	// within this window degrades into a cascading close. Zero means no
	// retry at all: a failed first dial is returned to the caller and
	// the first outage ends the link.
	LinkDeadline time.Duration
	// Seed seeds the backoff jitter.
	Seed int64
}

// DefaultResilience returns a production-shaped retry policy.
func DefaultResilience() Resilience {
	return Resilience{
		HeartbeatEvery: 500 * time.Millisecond,
		MissDeadline:   2 * time.Second,
		RetryBase:      25 * time.Millisecond,
		RetryMax:       time.Second,
		LinkDeadline:   15 * time.Second,
	}
}

// retries reports whether the policy rides out outages at all.
func (r Resilience) retries() bool { return r.LinkDeadline > 0 }

// resumeWait bounds the wait for the peer's half of the opening RESUME
// exchange. The session answers for the peer host, not the peer link:
// a broker parks a stream whose link end is gone (or not registered
// yet), so without this bound the wait could outlive a healthy session.
func (r Resilience) resumeWait() time.Duration {
	if r.MissDeadline > 0 {
		return r.MissDeadline
	}
	return rendezvousTimeout
}

// outageSeq decorrelates the backoff jitter of concurrent outages.
var outageSeq atomic.Int64

// Handle tracks one cross-node channel link from this node's
// perspective: either the sending half (outbound: local bytes flow to a
// remote reader) or the receiving half (inbound: remote bytes flow into
// a local pipe). A handle is created immediately by the Dial*/Serve*
// calls; serve-mode handles become active when the peer connects.
//
// The protocol is the handle's linkCore; the handle is its driver. The
// live connection's frames, the source's chunks and the resume timer
// become events, and each is stepped and its actions carried out under
// one lock, exec, through one frameWriter, where it arrives: a frame on
// its reader, a chunk on run, an expiry on the timer.
type Handle struct {
	b        *Broker
	outbound bool
	res      Resilience
	src      Source    // outbound
	dst      Sink      // inbound
	end      io.Closer // src or dst: the local channel end
	comp     bool      // outbound DATA payloads get a compression trial

	// mu guards the core, the actions stepped but not yet carried out,
	// and rearm. It is held only to step, never across an action, so
	// Move can step while an executor is parked in a delivery.
	mu    sync.Mutex
	core  linkCore
	queue []action
	rearm func(*Handle) // see SetRearmHook

	err                   error // set once, before done closes
	ready, done           chan struct{}
	readyOnce, finishOnce sync.Once
	kick                  chan struct{} // run may take chunks again

	// exec is held while an input is stepped and the actions carried
	// out: by the frame reader for a frame, the resume timer, run for a
	// chunk, Move for its MOVING. It owns the fields below.
	exec   sync.Mutex
	conn   *muxStream // the live connection
	w      frameWriter
	timer  *time.Timer // the live connection's resume wait
	outage time.Time   // when the current outage began
	spare  []action
	enc    blocks.Encoder

	// Owned by run.
	chunks chan outChunk // the source, read ahead by one chunk
	srcErr error         // why the source ended (io.EOF: cleanly), once chunks is closed
	next   outChunk      // a chunk that did not fit the last coalesced frame
}

// newLink builds the writer end of a link over src, or the reader end
// over dst. A journal (conduit.Durable) is a Source or Sink with taps
// no channel half has, and this is the one place they are looked for:
// a source's Rewind (a restarted sender skips forward to the
// receiver's offset) and Acked (the journal truncates behind the
// receiver), a sink's Delivered (the journal's end seeds the RESUME).
func (b *Broker) newLink(src Source, dst Sink, window int, serve bool, addr, token string) *Handle {
	out, end := src != nil, io.Closer(dst)
	if out {
		end = src
	}
	h := &Handle{b: b, outbound: out, res: b.resilience(), src: src, dst: dst, end: end, comp: b.compression(),
		core:  linkCore{outbound: out, serve: serve, addr: addr, token: token, peer: addr},
		ready: make(chan struct{}), done: make(chan struct{}), kick: make(chan struct{}, 1)}
	if j, ok := src.(interface{ Rewind(off uint64) error }); ok {
		h.core.rewind = j.Rewind
	}
	if j, ok := src.(interface{ Acked(off uint64) }); ok {
		h.core.confirmed = j.Acked
	}
	if ds, ok := dst.(interface{ Delivered() uint64 }); ok {
		// A durable sink survived a restart with journaled bytes: the
		// first RESUME announces the journal's end, or the sender would
		// replay bytes the sink already holds.
		h.core.delivered = ds.Delivered()
	}
	if window <= 0 {
		window = DefaultWindow
	}
	// Coalescing batches up to coalesceMax, but one frame past the
	// credit window would defeat the in-flight bound the window exists
	// for; the chunkSize floor keeps a one-chunk slack for windows
	// smaller than a chunk. RESUME carries the window, and the reader's
	// bound on it, in 32 bits.
	h.core.window = int(min(uint64(window), 1<<32-1-coalesceMax))
	h.core.frameMax = max(chunkSize, min(coalesceMax, window))
	return h
}

// Outbound reports whether this is the sending half.
func (h *Handle) Outbound() bool { return h.outbound }

// WaitReady blocks until the link is connected — for an inbound link,
// until its opening RESUME is queued, so that whatever the caller sends
// next (Move) goes out behind it. It fails with the link's terminal
// error if the link shuts down first, and with ErrRendezvousTimeout if
// neither happens in time.
func (h *Handle) WaitReady() error {
	t := time.NewTimer(rendezvousTimeout)
	defer t.Stop()
	select {
	case <-h.ready:
		return nil
	case <-h.done:
		if h.err != nil {
			return h.err
		}
		return ErrNotConnected
	case <-t.C:
		return ErrRendezvousTimeout
	}
}

// Wait blocks until the link has fully shut down and returns its
// terminal error, if any.
func (h *Handle) Wait() error {
	<-h.done
	return h.err
}

// Done returns a channel closed when the link has shut down.
func (h *Handle) Done() <-chan struct{} { return h.done }

// PeerAddr returns the broker address of the other end (known once the
// link is ready).
func (h *Handle) PeerAddr() (string, error) {
	if err := h.WaitReady(); err != nil {
		return "", err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.core.peer, nil
}

// SetRearmHook registers fn to be called with the replacement Handle
// whenever this link re-arms itself into a fresh handle — today only the
// redirect path (§4.3), where the reader host serves a new rendezvous
// for the writer's next hop. The hook propagates to the replacement, so
// a tracker following a chain of redirects always holds the live handle
// instead of a finished one. fn runs on the link's goroutine, before
// the old handle finishes, and must not block.
func (h *Handle) SetRearmHook(fn func(*Handle)) {
	h.mu.Lock()
	h.rearm = fn
	h.mu.Unlock()
}

// finish records the terminal error, published by closing done.
func (h *Handle) finish(err error) {
	h.finishOnce.Do(func() {
		h.err = err
		close(h.done)
	})
}

// Source is the local byte source a writer end pumps to the wire: a
// channel's read half, or a wrapper around one. Beside the bytes it
// carries the causal trace mark set upstream, taken once by the first
// send of a chunk (0: none), and the advisory element-shape hint that
// steers the compressor's trial encoding (0: none).
type Source interface {
	io.ReadCloser
	TakeTraceMark() uint64
	ShapeHint() uint32
}

// Sink is the local byte sink a reader end delivers into: a channel's
// write half, or a wrapper around one. MarkTrace re-marks a trace that
// arrived on the wire; Unbound lifts the sink's capacity bound, so a
// delivery parked on a full buffer returns while the reader moves.
type Sink interface {
	io.WriteCloser
	MarkTrace(id uint64)
	Unbound()
}

// DialOutbound connects to a waiting reader host and pumps src (the
// local byte source of the channel) to it. Used by the host that a
// writer process has just moved to (§4.2). window bounds the
// unacknowledged bytes in flight, preserving the channel's bounded-
// capacity semantics across the network — kernel socket buffers would
// otherwise add megabytes of invisible capacity (a non-positive window
// selects DefaultWindow; the migration machinery passes the channel's
// buffer capacity). Under a retry policy a failed dial is retried with
// backoff in the background instead of failing the call.
func (b *Broker) DialOutbound(addr, token string, src Source, window int) (*Handle, error) {
	return b.newLink(src, nil, window, false, addr, token).dial()
}

// ServeOutbound waits for the reader host to connect (with the given
// token) and then pumps src to it. Used by the origin host when a
// reader process moves away (§4.2). See DialOutbound for window.
func (b *Broker) ServeOutbound(token string, src Source, window int) (*Handle, error) {
	return b.newLink(src, nil, window, true, "", token).serve()
}

// DialInbound connects to a waiting writer host and pumps the received
// bytes into dst (the write end of the local pipe behind the moved
// reader port).
func (b *Broker) DialInbound(addr, token string, dst Sink) (*Handle, error) {
	return b.newLink(nil, dst, 0, false, addr, token).dial()
}

// ServeInbound waits for the writer host to connect and then pumps the
// received bytes into dst. Used by the origin host when a writer
// process moves away, and by any host receiving a redirected writer
// (§4.3).
func (b *Broker) ServeInbound(token string, dst Sink) (*Handle, error) {
	return b.newLink(nil, dst, 0, true, "", token).serve()
}

// dial starts a dialing link end. A failed first dial is the caller's
// error under the zero policy; a policy that retries redials instead.
func (h *Handle) dial() (*Handle, error) {
	conn, err := h.b.dial(h.core.addr, h.core.token)
	if err != nil && !h.res.retries() {
		return nil, err
	}
	go h.run(conn, h.core.addr)
	return h, nil
}

// serve registers a serving link end's rendezvous. A broker that shuts
// down first closes the local channel end and finishes the handle.
func (h *Handle) serve() (*Handle, error) {
	err := h.b.expectCancelable(h.core.token, func(conn *muxStream, peer string) {
		go h.run(conn, peer)
	}, func(err error) {
		h.end.Close()
		h.finish(err)
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Redirect arranges the §4.3 writer-side redirection: once src is
// exhausted (the caller closes the local pipe's write end after
// detaching the moving writer port), the link's final frame is
// REDIRECT(token) instead of EOF, telling the reader host to await a
// direct connection from the writer's new host. It returns the reader
// host's broker address for the migration descriptor.
func (h *Handle) Redirect(token string) (peerAddr string, err error) {
	if !h.outbound {
		return "", fmt.Errorf("%w: Redirect requires an outbound link", ErrWrongDirection)
	}
	if err := h.WaitReady(); err != nil {
		return "", err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.queue = h.core.step(event{kind: evRedirect, f: frame{token: token}}, h.queue)
	return h.core.peer, nil
}

// Move arranges the reader-side redirection (the dual of Redirect):
// the writer host is told, over the control direction, to pause at a
// fence and reconnect directly to the reader's new host. Move returns
// after the fence has arrived and the link has shut down, at which
// point every byte the writer sent is either in the local pipe or will
// be delivered to the new host.
//
// A link that is between connections, or whose stream already ended
// (the sender's final frame was confirmed, so the local pipe holds the
// rest of the stream and its EOF), has nobody to tell: Move returns
// ErrNotConnected. In the second case the handle is Done by then, and
// the caller moves the reader as the local channel end it has become.
func (h *Handle) Move(addr, token string) error {
	if h.outbound {
		return fmt.Errorf("%w: Move requires an inbound link", ErrWrongDirection)
	}
	if err := h.WaitReady(); err != nil {
		return err
	}
	h.mu.Lock()
	n := len(h.queue)
	h.queue = h.core.step(event{kind: evMove, f: frame{kind: frameMoving, addr: addr, token: token}}, h.queue)
	accepted, ended := len(h.queue) > n, h.core.phase == phaseDone
	h.mu.Unlock()
	if !accepted {
		if ended {
			<-h.done // its finish is queued behind the step that ended it
		}
		return ErrNotConnected
	}
	// The step's release is carried out at once: the frame reader may
	// hold exec, parked in the very delivery into the full buffer that
	// it releases. Whoever holds exec next carries out the MOVING.
	h.dst.Unbound()
	h.exec.Lock()
	h.drain()
	h.exec.Unlock()
	return h.Wait()
}

// reconnect reestablishes one side of a broken link within what is left
// of the outage's LinkDeadline — nothing, under the zero policy: the
// dialer re-dials with jittered exponential backoff, the server re-arms
// its rendezvous token and waits.
func (b *Broker) reconnect(res Resilience, serve bool, addr, token string, outageStart time.Time) (*muxStream, error) {
	deadline := outageStart.Add(res.LinkDeadline)
	backoff := res.RetryBase
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	rng := rand.New(rand.NewSource(res.Seed + outageSeq.Add(1)))
	for {
		// The deadline is checked before every attempt, not only after a
		// failed dial: a peer broker accepts HELLOs while the peer link
		// may be gone, and a dial that succeeds into a failed RESUME
		// exchange would otherwise cycle forever.
		remaining := time.Until(deadline)
		select {
		case <-b.closedCh:
			return nil, ErrBrokerClosed // not an outage: this node is shutting down
		default:
		}
		switch {
		case remaining <= 0:
			return nil, ErrLinkDeadline
		case serve:
			return b.expectWithin(token, remaining)
		}
		conn, err := b.dial(addr, token)
		if err == nil {
			return conn, nil
		}
		b.noteLink("retry")
		// Decorrelated jitter in [backoff/2, backoff].
		half := backoff / 2
		wait := half + time.Duration(rng.Int63n(int64(half)+1))
		if wait > time.Until(deadline) {
			return nil, fmt.Errorf("reconnect to %s: %w: %w", addr, ErrLinkDeadline, err)
		}
		t := time.NewTimer(wait)
		select {
		case <-b.closedCh:
			t.Stop()
			return nil, ErrBrokerClosed // fail at once, not at the deadline
		case <-t.C:
		}
		if backoff *= 2; backoff > res.RetryMax && res.RetryMax > 0 {
			backoff = res.RetryMax
		}
	}
}

// run is the link's loop, from its first connection (nil if a dialing
// end's first dial failed under a retry policy) to its end: it steps the
// source's chunks, and shuts the link down once it is over. Frames are
// stepped by the live connection's reader and the resume wait by its
// timer, each under exec, so an input is carried out where it arrives.
func (h *Handle) run(conn *muxStream, peer string) {
	h.exec.Lock()
	if conn != nil {
		h.step(h.attach(conn, peer))
	} else {
		h.b.noteLink("retry")
		h.step(h.connect(h.b.reconnect(h.res, false, h.core.addr, h.core.token, time.Now())))
	}
	h.drain()
	h.exec.Unlock()
	for {
		h.mu.Lock()
		want := h.core.wantsChunk()
		h.mu.Unlock()
		if want && h.chunks == nil {
			h.startSource()
		}
		var ev event
		if c := h.next; want && c.data != nil {
			h.next = outChunk{}
			ev = event{kind: evChunk, c: h.coalesce(c)}
		} else {
			var chunks chan outChunk
			if want {
				chunks = h.chunks
			}
			select {
			case <-h.done:
				h.shutdown()
				return
			case <-h.kick:
				continue
			case c, ok := <-chunks:
				if !ok {
					ev = event{kind: evSourceEnd, err: h.srcErr}
				} else {
					ev = event{kind: evChunk, c: h.coalesce(c)}
				}
			}
		}
		h.input(ev, nil)
	}
}

// input steps ev under exec and carries out what it calls for. An input
// of conn (if not nil) is stale once conn is no longer the live
// connection: it is dropped, and input reports false.
func (h *Handle) input(ev event, conn *muxStream) bool {
	h.exec.Lock()
	defer h.exec.Unlock()
	if conn != nil && conn != h.conn {
		return false
	}
	h.step(ev)
	h.drain()
	return true
}

// step applies ev to the core, and wakes run if the writer end now takes
// chunks again (an ACK freed the window, or the stream opened).
func (h *Handle) step(ev event) {
	h.mu.Lock()
	wanted := h.core.wantsChunk()
	h.queue = h.core.step(ev, h.queue)
	if !wanted && h.core.wantsChunk() {
		select {
		case h.kick <- struct{}{}:
		default:
		}
	}
	h.mu.Unlock()
	if ev.kind == evUp {
		h.readyOnce.Do(func() { close(h.ready) })
	}
}

// drain carries out the queued actions in order, stepping the events
// their outcomes call for, and flushes each batch once, until none is
// left. The caller holds exec.
func (h *Handle) drain() {
	for {
		h.mu.Lock()
		acts := h.queue
		h.queue, h.spare = h.spare[:0], acts
		h.mu.Unlock()
		if len(acts) == 0 {
			return
		}
		for i := range acts {
			h.do(&acts[i])
		}
		clear(acts)
		if h.conn != nil {
			// A failed write needs no event of its own: the stream was
			// reset or its session died, so the reader, once it has
			// delivered what is buffered (a FENCE, say), reports the loss.
			h.w.flush()
		}
	}
}

func (h *Handle) do(a *action) {
	switch a.kind {
	case actCtrl:
		h.ctrl(a.f)
	case actData:
		h.send(a.c, a.first, a.f.token)
		if a.own {
			a.c.release()
		}
	case actDeliver:
		if _, err := h.dst.Write(a.f.payload); err != nil {
			h.step(event{kind: evSinkFailed})
			return
		}
		// Credit in logical bytes: the sender's window, offsets and
		// replay queue all count the uncompressed stream.
		h.ctrl(frame{kind: frameAck, ack: len(a.f.payload)})
	case actMark:
		// The receiving half of the conduit edge the multi-node trace
		// merge aligns on; the re-marked pipe carries it further.
		h.b.noteSpan(a.f.token, "wire-in", a.f.off)
		h.dst.MarkTrace(a.f.off)
	case actAcked:
		if h.core.confirmed != nil {
			h.core.confirmed(a.f.off)
		}
	case actStall:
		h.b.ins.Load().creditStalls.Inc()
	case actReconnect:
		h.drop()
		h.step(h.renew(a))
	case actRearm:
		h.rearmAt(a.f.token)
	case actClose:
		h.end.Close()
	case actFinish:
		if a.degraded {
			h.b.noteLink("fail")
		}
		h.finish(a.err)
	}
}

// attach makes conn the live connection and starts its reader and its
// resume wait.
func (h *Handle) attach(conn *muxStream, peer string) event {
	h.conn, h.w = conn, frameWriter{w: conn, id: conn.id, buf: h.w.buf}
	h.timer = time.AfterFunc(h.res.resumeWait(), func() { h.input(event{kind: evExpired}, conn) })
	go h.readFrames(conn)
	return event{kind: evUp, f: frame{addr: peer}}
}

func (h *Handle) connect(conn *muxStream, err error) event {
	if err != nil {
		return event{kind: evLost, err: err}
	}
	return h.attach(conn, h.core.addr)
}

// drop flushes the live connection and closes it; a stream's close is
// ordered behind its data.
func (h *Handle) drop() {
	if h.conn == nil {
		return
	}
	h.w.flush()
	h.timer.Stop()
	h.conn.Close()
	h.conn = nil
	h.w = frameWriter{buf: h.w.buf, err: ErrNotConnected}
}

// renew gets the next connection. A MOVING's re-dial is part of the
// move, not an outage: one dial, and only a policy that retries keeps
// at it. Anything else is an outage, ridden out within LinkDeadline.
func (h *Handle) renew(a *action) event {
	if a.move {
		conn, err := h.b.dial(a.f.addr, a.f.token)
		if err != nil && h.res.retries() {
			conn, err = h.b.reconnect(h.res, false, a.f.addr, a.f.token, time.Now())
		}
		return h.connect(conn, err)
	}
	if a.fresh || h.outage.IsZero() {
		h.outage = time.Now()
	}
	conn, err := h.b.reconnect(h.res, a.serve, a.f.addr, a.f.token, h.outage)
	if err == nil {
		h.b.noteLink("heal")
	}
	return h.connect(conn, err)
}

// readFrames steps each frame of conn, and its loss, under exec, until
// conn is no longer the live connection. A DATA payload aliases conn's
// inbox, which is safe because it is delivered before the next frame is
// taken. A DATA-C block that fails its strict decode is wire
// corruption, like an unknown frame kind.
func (h *Handle) readFrames(conn *muxStream) {
	defer conn.release()
	var dec *[]byte // DATA-C output, which cannot alias the block
	for {
		f, err := conn.next()
		switch {
		case err != nil:
		case f.kind == frameDataC:
			if dec == nil {
				dec = getChunkBuf()
				defer putChunkBuf(dec)
			}
			wire := len(f.payload)
			if f.payload, err = blocks.DecodeBE((*dec)[:0], f.payload, coalesceMax); err != nil {
				err = ErrBadFrame
			} else {
				h.b.noteData(frameDataC, false, wire, len(f.payload))
			}
		case f.kind == frameData:
			h.b.noteData(frameData, false, len(f.payload), len(f.payload))
		default:
			h.b.noteFrame(f.kind, false)
		}
		ev := event{kind: evFrame, f: f}
		if err != nil {
			ev = event{kind: evLost, err: err}
		}
		if !h.input(ev, conn) || err != nil {
			return
		}
	}
}

// startSource launches the goroutine that reads the source ahead into
// chunks, each read straight into a pooled buffer with header headroom.
// It starts once the link first opens: a restarted sender Rewinds its
// journal-backed source to the receiver's offset before any read.
func (h *Handle) startSource() {
	chunks, frameMax := make(chan outChunk), h.core.frameMax
	h.chunks = chunks
	go func() {
		defer close(chunks)
		for {
			bp := getChunkBuf()
			n, err := h.src.Read((*bp)[frameHdrLen : frameHdrLen+frameMax])
			if n > 0 {
				chunks <- outChunk{data: (*bp)[frameHdrLen : frameHdrLen+n], start: frameHdrLen, orig: bp}
			} else {
				putChunkBuf(bp)
			}
			if err != nil {
				h.srcErr = err
				return
			}
		}
	}()
}

// coalesce merges chunks already queued behind c into its buffer, up to
// the frame cap, without waiting: only a source reader parked on the
// unbuffered channel hands one over. One that does not fit waits in
// h.next; a closed channel is left for wait to report.
func (h *Handle) coalesce(c outChunk) outChunk {
	for room := c.room(h.core.frameMax); room > 0; room = c.room(h.core.frameMax) {
		select {
		case d, ok := <-h.chunks:
			if !ok {
				return c
			}
			if len(d.data) > room {
				h.next = d
				return c
			}
			c.absorb(d)
			d.release()
			h.b.ins.Load().framesCoalesced.Inc()
		default:
			return c
		}
	}
	return c
}

func (h *Handle) ctrl(f frame) {
	h.w.frame(f)
	h.b.noteFrame(f.kind, true)
}

// send writes chunk c as one DATA frame, its header in the chunk's
// headroom; element-aligned payloads get a compression trial first. A
// first send may carry a trace mark ahead of it — set upstream on the
// pipe, or minted by the broker's sampler — that is never replayed: a
// mark lost to a reconnect leaves that batch unsampled.
func (h *Handle) send(c outChunk, first bool, token string) {
	if first {
		id := h.src.TakeTraceMark()
		if id == 0 {
			id = h.b.traceSampler().Sample()
		}
		if id != 0 {
			// Before the flush: a wire-out stamped after the receiver's
			// wire-in would break the causal edge the trace merge aligns on.
			h.b.noteSpan(token, "wire-out", id)
			h.ctrl(frame{kind: frameTrace, off: id})
		}
	}
	n := len(c.data)
	if h.comp && n >= compressMin && n%8 == 0 && h.sendCompressed(c) {
		return
	}
	if h.w.data(frameData, (*c.orig)[c.start-frameHdrLen:c.start+n]) == nil {
		h.b.noteData(frameData, true, n, n)
	}
}

// sendCompressed ships c.data as one DATA-C block if sealing saves at
// least 1/8 of it, and reports whether it did. The chunk stays as it
// was: credit, offsets and replay count logical bytes, and a replay is
// re-sealed.
func (h *Handle) sendCompressed(c outChunk) bool {
	shape := blocks.Shape(h.src.ShapeHint())
	n := len(c.data)
	bp := getChunkBuf()
	defer putChunkBuf(bp)
	block, ok := h.enc.EncodeBE((*bp)[frameHdrLen:frameHdrLen], c.data, shape, n-n/8)
	if !ok || &block[0] != &(*bp)[frameHdrLen] {
		// Did not pay — or outgrew the buffer, leaving no headroom.
		return false
	}
	if h.w.data(frameDataC, (*bp)[:frameHdrLen+len(block)]) == nil {
		h.b.noteData(frameDataC, true, len(block), n)
	}
	return true
}

// rearmAt serves the redirected writer's next rendezvous into the same
// sink, handing the replacement to the hook before this handle
// finishes, and the hook to the replacement for the next redirect.
func (h *Handle) rearmAt(token string) {
	nh, err := h.b.ServeInbound(token, h.dst)
	if err != nil {
		h.finish(fmt.Errorf("netio: redirect re-arm: %w", err))
		return
	}
	h.mu.Lock()
	hook := h.rearm
	h.mu.Unlock()
	if hook != nil {
		nh.SetRearmHook(hook)
		hook(nh)
	}
}

// shutdown releases what the link holds once it is over — connection,
// timer, buffers — and drains the source reader until it exits.
func (h *Handle) shutdown() {
	h.exec.Lock()
	defer h.exec.Unlock()
	h.drop()
	h.mu.Lock()
	h.core.unacked.drop()
	h.core.pending.release()
	h.mu.Unlock()
	h.next.release()
	if h.chunks != nil {
		for c := range h.chunks {
			c.release()
		}
	}
}
