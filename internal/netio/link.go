package netio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dpn/internal/token/blocks"
)

// chunkSize is the outbound link's base read granularity.
const chunkSize = 32 * 1024

// coalesceMax caps an outbound DATA frame's payload at a multiple of
// chunkSize. The source reader pulls up to this much per pipe read, and
// the sender merges chunks already queued behind it up to the same cap
// — natural coalescing that never waits for more data, so latency and
// determinacy are untouched (only the frame count changes).
const coalesceMax = 4 * chunkSize

// chunkPool recycles outbound chunk buffers and inbound frame scratch.
// Each buffer reserves frameHdrLen bytes of headroom before the data
// region so a DATA frame header can be written immediately before the
// payload and the whole frame leaves in a single write.
var chunkPool = sync.Pool{
	New: func() any {
		b := make([]byte, frameHdrLen+coalesceMax)
		return &b
	},
}

func getChunkBuf() *[]byte  { return chunkPool.Get().(*[]byte) }
func putChunkBuf(b *[]byte) { chunkPool.Put(b) }

// outChunk is one run of source bytes staged for the wire. data aliases
// (*orig)[start:], where orig is a pooled buffer with at least
// frameHdrLen bytes of headroom before start. The buffer returns to the
// pool when the chunk is fully acknowledged (until then it may be
// replayed; see replayQueue).
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

// absorb appends d's bytes to c in place (the caller checked room) and
// returns d's buffer to the pool.
func (c *outChunk) absorb(d outChunk) {
	tail := c.start + len(c.data)
	copy((*c.orig)[tail:], d.data)
	c.data = (*c.orig)[c.start : tail+len(d.data)]
	d.release()
}

// compressMin is the smallest DATA payload worth a compression trial.
// Below it the frame is latency-bound, not bandwidth-bound, and the
// trial's scan would cost more than the bytes it saves.
const compressMin = 256

// DefaultWindow is the flow-control window used when a link is created
// with a non-positive window: the sender keeps at most this many
// unacknowledged bytes in flight.
const DefaultWindow = 256 * 1024

// rendezvousTimeout bounds how long link setup waits for the peer.
const rendezvousTimeout = 60 * time.Second

// ErrLinkDeadline is returned when an outage outlasts the link's
// LinkDeadline and the link degrades into a cascading close. Part of
// the consolidated sentinel set in internal/conduit/errs.go.
var ErrLinkDeadline = errors.New("netio: link deadline exceeded")

// ErrWrongDirection is returned when a direction-specific operation is
// invoked on the wrong link half (Redirect on an inbound link, Move on
// an outbound one) — an API-misuse condition, never transient. Part of
// the consolidated sentinel set in internal/conduit/errs.go.
var ErrWrongDirection = errors.New("netio: operation requires the other link direction")

// ErrNotConnected is returned by control operations that need a live
// connection while the link is between connections (during an outage,
// or before rendezvous completed). Part of the consolidated sentinel
// set in internal/conduit/errs.go.
var ErrNotConnected = errors.New("netio: link not connected")

// ErrTruncated is the terminal error of an inbound link whose
// connection ended before the sender's final frame (EOF or REDIRECT)
// and whose retry policy could not resume it — at once under the zero
// policy, after LinkDeadline otherwise; the cause is wrapped alongside.
// The local reader is still closed so the graph terminates (§3.4), but
// the stream it drained is a prefix of what the sender wrote, never to
// be mistaken for a clean end. Part of the consolidated sentinel set in
// internal/conduit/errs.go.
var ErrTruncated = errors.New("netio: stream ended before the sender's final frame")

// Resilience is a broker's retry policy. It does not change the wire:
// every link speaks the one resumable protocol (RESUME opens each
// connection, BYE confirms the final frame, offsets and ACKs always
// run), so peers with different policies interoperate. The policy only
// decides what a link does when the session under it dies. With a
// positive LinkDeadline the outage is healed: the dialer side re-dials
// with jittered exponential backoff, the serving side re-arms its
// rendezvous token, and the RESUME exchange replays whatever the outage
// swallowed. An outage that outlasts LinkDeadline — under the zero
// policy, any outage — degrades into the normal cascading close: the
// local channel end is poisoned and the process network terminates
// cleanly instead of hanging. HeartbeatEvery and MissDeadline tune the
// broker's sessions (see muxConfig); zero selects the session defaults.
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
// exchange. The session under a stream answers for the peer host, not
// for the peer link: a broker parks a stream whose link end is gone (or
// not registered yet), so without a bound of its own the wait could
// outlive a healthy session forever.
func (r Resilience) resumeWait() time.Duration {
	if r.MissDeadline > 0 {
		return r.MissDeadline
	}
	return rendezvousTimeout
}

// outageSeq decorrelates the backoff jitter streams of concurrent
// outages.
var outageSeq atomic.Int64

// Handle tracks one cross-node channel link from this node's
// perspective: either the sending half (outbound: local bytes flow to a
// remote reader) or the receiving half (inbound: remote bytes flow into
// a local pipe). A handle is created immediately by the Dial*/Serve*
// calls; serve-mode handles become active when the peer connects.
type Handle struct {
	b        *Broker
	outbound bool

	mu       sync.Mutex
	active   bool
	peerAddr string
	ready    chan struct{}

	out *outboundLink
	in  *inboundLink

	// rearm, when set, is invoked with the replacement Handle whenever
	// this link re-arms itself (the §4.3 redirect path registers a fresh
	// ServeInbound rendezvous on the same broker). See SetRearmHook.
	rearm func(*Handle)

	done       chan struct{}
	finishOnce sync.Once
	err        error
}

func newHandle(b *Broker, outbound bool) *Handle {
	return &Handle{
		b:        b,
		outbound: outbound,
		ready:    make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Outbound reports whether this is the sending half.
func (h *Handle) Outbound() bool { return h.outbound }

// WaitReady blocks until the link is connected — for an inbound link,
// until its opening RESUME is on the wire, so that whatever the caller
// sends next (Move) is ordered behind it. It fails with the link's
// terminal error if the link shuts down first, and with
// ErrRendezvousTimeout if neither happens in time.
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
	return h.peerAddr, nil
}

// SetRearmHook registers fn to be called with the replacement Handle
// whenever this link re-arms itself into a fresh handle — today only the
// redirect path (§4.3), where the reader host serves a new rendezvous
// for the writer's next hop. The hook propagates to the replacement, so
// a tracker following a chain of redirects always holds the live handle
// instead of a finished one. fn runs on the link's session goroutine,
// before the old handle finishes, and must not block.
func (h *Handle) SetRearmHook(fn func(*Handle)) {
	h.mu.Lock()
	h.rearm = fn
	h.mu.Unlock()
}

func (h *Handle) rearmHook() func(*Handle) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rearm
}

func (h *Handle) finish(err error) {
	h.finishOnce.Do(func() {
		h.mu.Lock()
		h.err = err
		h.mu.Unlock()
		close(h.done)
	})
}

// setPeer records the broker address of the other end: at connection
// time, and again when a MOVING re-points an outbound link.
func (h *Handle) setPeer(addr string) {
	h.mu.Lock()
	h.peerAddr = addr
	h.mu.Unlock()
}

func (h *Handle) markReady() {
	h.mu.Lock()
	if !h.active {
		h.active = true
		close(h.ready)
	}
	h.mu.Unlock()
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
func (b *Broker) DialOutbound(addr, token string, src io.ReadCloser, window int) (*Handle, error) {
	h := newHandle(b, true)
	h.setPeer(addr)
	h.out = b.newOutbound(h, src, window, false, addr, token)
	conn, err := b.dial(addr, token)
	if err != nil {
		if !h.out.res.retries() {
			return nil, err
		}
		go h.out.redial()
		return h, nil
	}
	h.markReady()
	go h.out.run(conn)
	return h, nil
}

// ServeOutbound waits for the reader host to connect (with the given
// token) and then pumps src to it. Used by the origin host when a
// reader process moves away (§4.2). See DialOutbound for window.
func (b *Broker) ServeOutbound(token string, src io.ReadCloser, window int) (*Handle, error) {
	h := newHandle(b, true)
	h.out = b.newOutbound(h, src, window, true, "", token)
	err := b.expectCancelable(token, func(conn net.Conn, peerAddr string) {
		h.setPeer(peerAddr)
		h.markReady()
		go h.out.run(conn)
	}, func(err error) {
		// Broker shut down before the peer arrived: poison the local
		// source and finish, so watchers of this handle terminate
		// instead of leaking.
		src.Close()
		h.finish(err)
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// traceTaker and traceMarker mirror stream.TraceTaker/TraceMarker
// structurally, so links stay decoupled from the stream package while
// still propagating causal trace marks across the wire.
type traceTaker interface{ TakeTraceMark() uint64 }
type traceMarker interface{ MarkTrace(id uint64) }

// shapeSource mirrors stream.ShapeSource structurally: sources whose
// advisory element-shape hint steers the wire compressor's trial
// encoding. A source without one still compresses — the default int
// trial catches monotone runs regardless.
type shapeSource interface{ ShapeHint() uint32 }

// rewindableSource marks a source that can reposition itself to an
// absolute logical stream offset — the durable (WAL-journaling)
// conduit binding. The outbound resync consults it when the receiver's
// RESUME offset is AHEAD of this incarnation's sendOff: that only
// happens when the sender process was restarted (a fresh link starts
// at offset 0) and means the receiver already holds bytes this
// incarnation has not produced yet. Rewinding the journal-backed
// source to the receiver's offset turns a kill -9 into a plain
// partition.
type rewindableSource interface{ Rewind(off uint64) error }

// ackedSource receives the receiver-confirmed delivered offset as it
// advances, so a journaling source can truncate acknowledged segments.
type ackedSource interface{ Acked(off uint64) }

// deliveredSink reports how many logical bytes a sink has already made
// durable, seeding the inbound link's delivered offset after a restart
// so its first RESUME announces the journal's end rather than zero.
type deliveredSink interface{ Delivered() uint64 }

func (b *Broker) newOutbound(h *Handle, src io.ReadCloser, window int, serve bool, addr, token string) *outboundLink {
	w := normWindow(window)
	tt, _ := src.(traceTaker)
	ss, _ := src.(shapeSource)
	rw, _ := src.(rewindableSource)
	ak, _ := src.(ackedSource)
	return &outboundLink{
		h:         h,
		src:       src,
		traceSrc:  tt,
		shapeSrc:  ss,
		rewindSrc: rw,
		ackSrc:    ak,
		comp:      b.compression(),
		window:    w,
		frameMax:  normFrameMax(w),
		res:       b.resilience(),
		serveRole: serve,
		dialAddr:  addr,
		token:     token,
	}
}

// normFrameMax bounds one DATA frame's payload: coalescing may batch
// up to coalesceMax, but never more than the credit window — a single
// frame past the window would defeat the in-flight bound the window
// exists for. The chunkSize floor preserves the historical one-chunk
// slack for windows smaller than a chunk.
func normFrameMax(window int) int {
	fm := coalesceMax
	if window < fm {
		fm = window
	}
	if fm < chunkSize {
		fm = chunkSize
	}
	return fm
}

func normWindow(w int) int {
	if w <= 0 {
		return DefaultWindow
	}
	return w
}

// DialInbound connects to a waiting writer host and pumps the received
// bytes into dst (the write end of the local pipe behind the moved
// reader port).
func (b *Broker) DialInbound(addr, token string, dst io.WriteCloser) (*Handle, error) {
	h := newHandle(b, false)
	h.setPeer(addr)
	h.in = b.newInbound(h, dst, false, addr, token)
	conn, err := b.dial(addr, token)
	if err != nil {
		if !h.in.res.retries() {
			return nil, err
		}
		go h.in.redial()
		return h, nil
	}
	go h.in.run(conn)
	return h, nil
}

// ServeInbound waits for the writer host to connect and then pumps the
// received bytes into dst. Used by the origin host when a writer
// process moves away, and by any host receiving a redirected writer
// (§4.3).
func (b *Broker) ServeInbound(token string, dst io.WriteCloser) (*Handle, error) {
	h := newHandle(b, false)
	h.in = b.newInbound(h, dst, true, "", token)
	err := b.expectCancelable(token, func(conn net.Conn, peerAddr string) {
		h.setPeer(peerAddr)
		go h.in.run(conn)
	}, func(err error) {
		dst.Close()
		h.finish(err)
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

func (b *Broker) newInbound(h *Handle, dst io.WriteCloser, serve bool, addr, token string) *inboundLink {
	tm, _ := dst.(traceMarker)
	i := &inboundLink{
		h:         h,
		dst:       dst,
		traceDst:  tm,
		res:       b.resilience(),
		serveRole: serve,
		dialAddr:  addr,
		token:     token,
	}
	if ds, ok := dst.(deliveredSink); ok {
		// A durable sink survived a restart with journaled bytes: the
		// first RESUME must announce the journal's end, or the sender
		// would replay bytes the sink already holds.
		i.delivered = ds.Delivered()
	}
	return i
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
	h.out.setRedirect(token)
	return h.peerAddr, nil
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
	if err := h.in.sendMoving(addr, token); err != nil {
		return err
	}
	// Until MOVING reaches it the writer host keeps sending, and this
	// side's session has to deliver all of that before it gets to the
	// FENCE awaited below. The local reader is suspended for the move,
	// so nothing drains dst: a full buffer here used to park the session
	// for good, and Move with it.
	if u, ok := h.in.dst.(interface{ Unbound() }); ok {
		u.Unbound()
	}
	return h.Wait()
}

// reconnect reestablishes one side of a broken link within what is left
// of the outage's LinkDeadline — nothing, under the zero policy. The
// dialer role re-dials the peer with jittered exponential backoff; the
// serving role re-arms its rendezvous token and waits.
func (b *Broker) reconnect(res Resilience, serve bool, addr, token string, outageStart time.Time) (net.Conn, error) {
	select {
	case <-b.closedCh:
		// Not an outage: the local node is shutting down.
		return nil, ErrBrokerClosed
	default:
	}
	deadline := outageStart.Add(res.LinkDeadline)
	if serve {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, ErrLinkDeadline
		}
		conn, _, err := b.expectWithin(token, remaining)
		return conn, err
	}
	backoff := res.RetryBase
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	var rng *rand.Rand // built on the first failed attempt
	for {
		// Check the outage deadline before every attempt, not only on
		// dial failure: a peer broker can keep accepting HELLOs while the
		// peer link itself is gone (receiver degraded, EOF/BYE lost), so
		// each "successful" dial is followed by a failed resync and
		// another reconnect. Without this check that cycle never ends and
		// the link never degrades.
		if !time.Now().Before(deadline) {
			return nil, ErrLinkDeadline
		}
		conn, err := b.dial(addr, token)
		if err == nil {
			return conn, nil
		}
		b.noteLink("retry")
		if rng == nil {
			rng = rand.New(rand.NewSource(res.Seed + outageSeq.Add(1)))
		}
		// Decorrelated jitter in [backoff/2, backoff].
		half := backoff / 2
		wait := half + time.Duration(rng.Int63n(int64(half)+1))
		if time.Now().Add(wait).After(deadline) {
			return nil, fmt.Errorf("reconnect to %s: %w: %w", addr, ErrLinkDeadline, err)
		}
		// Sleep interruptibly: a broker shutting down mid-backoff (e.g.
		// during an in-flight RESUME resync) must fail the link fast with
		// ErrBrokerClosed, not keep dialing until LinkDeadline.
		t := time.NewTimer(wait)
		select {
		case <-b.closedCh:
			t.Stop()
			return nil, ErrBrokerClosed
		case <-t.C:
		}
		backoff *= 2
		if backoff > res.RetryMax && res.RetryMax > 0 {
			backoff = res.RetryMax
		}
	}
}

// outboundLink pumps a local byte source to the remote reader host,
// subject to a credit window: at most `window` bytes may be
// unacknowledged, so the receiver's bounded pipe governs the sender's
// progress end to end. It retains unacknowledged bytes and replays them
// after a reconnect, trimming to the offset the receiver announces in
// its RESUME frame.
type outboundLink struct {
	h   *Handle
	src io.ReadCloser
	// traceSrc is src's trace-mark tap, nil when src is not trace-aware.
	traceSrc traceTaker
	// shapeSrc is src's element-shape tap, nil when src carries no hint.
	shapeSrc shapeSource
	// rewindSrc/ackSrc are src's durable-journal taps, nil for plain
	// sources; see rewindableSource/ackedSource.
	rewindSrc rewindableSource
	ackSrc    ackedSource
	// comp enables columnar block compression of DATA payloads; enc is
	// the run goroutine's reusable encoder scratch.
	comp bool
	enc  blocks.Encoder

	mu            sync.Mutex
	redirectToken string

	window   int
	frameMax int // per-frame payload cap; see normFrameMax
	inFlight int

	chunks     chan outChunk
	srcErr     error
	readerOnce sync.Once

	// session-owned scratch: frame header staging for control writes.
	hdr [16]byte

	// All fields below are owned by the run goroutine.
	res       Resilience
	serveRole bool
	dialAddr  string
	token     string
	sendOff   uint64 // logical stream offset after the last sent chunk
	ackOff    uint64 // offset the receiver has confirmed delivered
	unacked   replayQueue
	pending   outChunk // chunk taken from the source but not yet sent
	next      outChunk // drained chunk that did not fit the coalesce cap
	finishing bool     // source exhausted; terminal frame in progress
}

func (o *outboundLink) setRedirect(token string) {
	o.mu.Lock()
	o.redirectToken = token
	o.mu.Unlock()
}

func (o *outboundLink) finalFrame() frame {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.redirectToken != "" {
		return frame{kind: frameRedirect, token: o.redirectToken}
	}
	return frame{kind: frameEOF}
}

// startReader launches the goroutine that reads the source into the
// chunk channel. It survives connection swaps (MOVING and reconnects).
// Each read pulls up to coalesceMax bytes straight into a pooled
// buffer (with header headroom), so a fast producer's bytes already
// arrive batched and no copy or per-chunk allocation happens.
func (o *outboundLink) startReader() {
	o.readerOnce.Do(func() {
		o.chunks = make(chan outChunk)
		go func() {
			defer close(o.chunks)
			for {
				bp := getChunkBuf()
				n, err := o.src.Read((*bp)[frameHdrLen : frameHdrLen+o.frameMax])
				if n > 0 {
					o.chunks <- outChunk{
						data:  (*bp)[frameHdrLen : frameHdrLen+n],
						start: frameHdrLen,
						orig:  bp,
					}
				} else {
					putChunkBuf(bp)
				}
				if err != nil {
					if err != io.EOF {
						o.srcErr = err
					}
					return
				}
			}
		}()
	})
}

// writeCtrl writes one non-DATA frame from the session goroutine. Like
// every link write it carries no deadline: the session's Timeout is the
// wire's only liveness probe, and a write parked on stream credit
// behind a slow reader is back-pressure, not a dead peer.
func (o *outboundLink) writeCtrl(conn net.Conn, f frame) error {
	err := writeFrameBuf(conn, f, o.hdr[:])
	if err == nil {
		o.h.b.noteFrame(f.kind, true, 0)
	}
	return err
}

// writeData writes one DATA frame as a single conn.Write: the header
// lands in the chunk buffer's reserved headroom directly before the
// payload, so there is no second syscall and no torn frame boundary
// between header and payload. Element-aligned payloads first get a
// compression trial (see writeCompressed); the raw path below is both
// the incompressible fallback and the only path when compression is
// off. Successful writes account themselves through noteData, so every
// caller — first send and RESUME replay alike — reports identical
// wire/logical byte pairs.
func (o *outboundLink) writeData(conn net.Conn, c outChunk) error {
	n := len(c.data)
	if o.comp && n >= compressMin && n%8 == 0 {
		if done, err := o.writeCompressed(conn, c); done {
			return err
		}
	}
	var err error
	if c.orig == nil || c.start < frameHdrLen {
		err = writeFrameBuf(conn, frame{kind: frameData, payload: c.data}, o.hdr[:])
	} else {
		full := (*c.orig)[c.start-frameHdrLen : c.start+n]
		full[0] = frameData
		binary.BigEndian.PutUint32(full[1:frameHdrLen], uint32(n))
		_, err = conn.Write(full)
	}
	if err == nil {
		o.h.b.noteData(frameData, true, n, n)
	}
	return err
}

// writeCompressed trial-seals c.data as one columnar block and, when
// the block saves at least 1/8 of the raw size, ships it as a single
// DATA-C frame (header + block in one conn.Write, like the raw path).
// done=false means nothing was written — the block did not pay for
// itself — and the caller ships the chunk raw. The chunk itself is
// never modified: flow control, the RESUME offsets, and the replay
// queue all keep working in logical (uncompressed) bytes, and a
// replayed chunk is simply re-sealed here.
func (o *outboundLink) writeCompressed(conn net.Conn, c outChunk) (done bool, err error) {
	shape := blocks.ShapeNone
	if o.shapeSrc != nil {
		shape = blocks.Shape(o.shapeSrc.ShapeHint())
	}
	n := len(c.data)
	bp := getChunkBuf()
	defer putChunkBuf(bp)
	block, ok := o.enc.EncodeBE((*bp)[frameHdrLen:frameHdrLen], c.data, shape, n-n/8)
	if !ok {
		return false, nil
	}
	if &block[0] != &(*bp)[frameHdrLen] {
		// The block outgrew the pooled buffer's headroomed region —
		// impossible for frame-sized chunks, but never ship from a
		// reallocated slice the header can't prefix in place.
		return false, nil
	}
	full := (*bp)[:frameHdrLen+len(block)]
	full[0] = frameDataC
	binary.BigEndian.PutUint32(full[1:frameHdrLen], uint32(len(block)))
	if _, err := conn.Write(full); err != nil {
		return true, err
	}
	o.h.b.noteData(frameDataC, true, len(block), n)
	return true, nil
}

// takeTrace claims the trace ID for the DATA frame about to be sent: a
// mark set upstream wins; otherwise the broker's auto-sampler may mint
// one. Both paths are one atomic load in the unsampled case.
func (o *outboundLink) takeTrace() uint64 {
	if o.traceSrc != nil {
		if id := o.traceSrc.TakeTraceMark(); id != 0 {
			return id
		}
	}
	return o.h.b.traceSampler().Sample()
}

// coalesce merges chunks already queued behind o.pending into its
// buffer, up to the coalesceMax cap, without ever waiting: only a
// reader goroutine currently parked on the unbuffered channel can hand
// a chunk over. A chunk that does not fit is parked in o.next for the
// following frame. Merged chunk buffers return to the pool
// immediately.
func (o *outboundLink) coalesce() {
	if o.pending.orig == nil {
		return
	}
	for {
		room := o.pending.room(o.frameMax)
		if room <= 0 {
			return
		}
		select {
		case c, ok := <-o.chunks:
			if !ok {
				o.finishing = true
				return
			}
			if len(c.data) > room {
				o.next = c
				return
			}
			o.pending.absorb(c)
			o.h.b.noteCoalesced()
		default:
			return
		}
	}
}

// redial runs the initial-dial retry loop for DialOutbound when the
// first attempt fails under a retry policy.
func (o *outboundLink) redial() {
	o.h.b.noteLink("retry")
	conn, err := o.h.b.reconnect(o.res, false, o.dialAddr, o.token, time.Now())
	if err != nil {
		o.degrade(err)
		return
	}
	o.h.markReady()
	o.run(conn)
}

// degrade ends the link after an outage its policy could not heal:
// the local source is poisoned so the process network terminates by
// cascading close instead of hanging (§3.4 across machines).
func (o *outboundLink) degrade(err error) {
	o.h.b.noteLink("fail")
	if o.finishing && o.srcErr == nil && o.unacked.n == 0 {
		// Every byte was confirmed delivered; only the terminal frame's
		// confirmation is outstanding. The receiver degrades
		// independently, so this end shuts down clean. Unacked bytes mean
		// possible data loss and must surface as a link failure, not a
		// clean close.
		err = nil
	}
	o.end(err)
}

// end shuts the link down with its terminal error: the source is closed
// (poisoning a producer that is still writing), every staged or
// retained buffer goes back to the pool, and the source reader — parked
// on a chunk nobody will take, or about to see the close — is drained
// until it exits, so a link leaves neither buffers nor goroutines.
func (o *outboundLink) end(err error) {
	o.src.Close()
	o.unacked.drop()
	o.pending.release()
	o.next.release()
	o.h.finish(err)
	if o.chunks != nil {
		for c := range o.chunks {
			c.release()
		}
	}
}

type ctrlEvent struct {
	f   frame
	err error
}

type sessResult int

const (
	sessContinue sessResult = iota // credit absorbed; keep going
	sessDone                       // link is over (reader closed, or the final frame was confirmed)
	sessMoved                      // reconnected to a new host; restart the session there
	sessFailed                     // connection dead; the policy decides what follows
)

// handleCtrl processes one control event. On sessMoved the connection
// to the reader's new host is returned.
func (o *outboundLink) handleCtrl(ev ctrlEvent, conn net.Conn) (sessResult, net.Conn) {
	if ev.err != nil {
		conn.Close()
		return sessFailed, nil
	}
	o.h.b.noteFrame(ev.f.kind, false, 0)
	switch ev.f.kind {
	case frameAck:
		o.inFlight -= ev.f.ack
		if o.inFlight < 0 {
			o.inFlight = 0
		}
		o.acked(o.ackOff + uint64(ev.f.ack))
	case frameCloseRead:
		// Remote reader closed: cascade the exception upstream.
		conn.Close()
		o.end(nil)
		return sessDone, nil
	case frameMoving:
		// Reader host is moving: fence this connection and reconnect
		// directly to the new host. Every pre-fence byte lands in the
		// old host's leftover buffer and travels inside the migration
		// parcel, so the stream offsets rebase to zero.
		o.writeCtrl(conn, frame{kind: frameFence})
		conn.Close()
		o.inFlight = 0
		o.unacked.drop()
		o.sendOff, o.ackOff = 0, 0
		o.serveRole = false
		o.dialAddr = ev.f.addr
		o.token = ev.f.token
		// The re-dial is part of the move, not an outage: one bounded
		// dial, and only a policy that retries keeps at it.
		newConn, err := o.h.b.dial(ev.f.addr, ev.f.token)
		if err != nil && o.res.retries() {
			newConn, err = o.h.b.reconnect(o.res, false, ev.f.addr, ev.f.token, time.Now())
		}
		if err != nil {
			o.end(fmt.Errorf("netio: reconnect after MOVING: %w", err))
			return sessDone, nil
		}
		o.h.setPeer(ev.f.addr)
		return sessMoved, newConn
	}
	return sessContinue, nil
}

// acked advances the receiver-confirmed offset: confirmed bytes leave
// the replay queue and a journaling source may truncate behind them.
func (o *outboundLink) acked(off uint64) {
	o.ackOff = off
	o.unacked.trim(off)
	if o.ackSrc != nil {
		o.ackSrc.Acked(off)
	}
}

func (o *outboundLink) run(conn net.Conn) {
	var outageStart time.Time
	for {
		res, next := sessFailed, net.Conn(nil)
		if o.resync(conn) {
			outageStart = time.Time{}
			res, next = o.session(conn)
		} else {
			conn.Close()
		}
		switch res {
		case sessDone:
			return
		case sessFailed:
			if outageStart.IsZero() {
				outageStart = time.Now()
			}
			var err error
			if next, err = o.h.b.reconnect(o.res, o.serveRole, o.dialAddr, o.token, outageStart); err != nil {
				o.degrade(err)
				return
			}
			o.h.b.noteLink("heal")
		}
		conn = next
	}
}

// resync performs the sender half of the RESUME exchange that opens
// every connection: the receiver speaks first, announcing its delivered
// offset; the sender confirms the offset it resumes from (the receiver
// waits for that, see inboundLink.open), retained bytes past it are
// replayed and the credit window is recomputed from it.
func (o *outboundLink) resync(conn net.Conn) bool {
	conn.SetReadDeadline(time.Now().Add(o.res.resumeWait()))
	f, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil || f.kind != frameResume {
		return false
	}
	o.h.b.noteFrame(frameResume, false, 0)
	off := f.off
	if off < o.ackOff {
		off = o.ackOff // delivered cannot regress; defensive
	}
	if off > o.sendOff {
		// The receiver holds bytes this incarnation never sent: the
		// sender process was restarted and its journal-backed source is
		// replaying the stream from offset zero. Skip the source forward
		// to the receiver's delivered offset and adopt it as our own.
		// This can only happen on an incarnation's first resync — the
		// reader goroutine has not started (see run), so no chunk is
		// staged and the replay queue is empty.
		if o.rewindSrc == nil || o.rewindSrc.Rewind(off) != nil {
			// A plain source cannot skip; the streams have genuinely
			// diverged (e.g. mismatched journal dir). Fail the session —
			// the link degrades at LinkDeadline rather than corrupting
			// the stream.
			return false
		}
		o.unacked.drop()
		o.sendOff = off
	}
	o.acked(off)
	if o.writeCtrl(conn, frame{kind: frameResume, off: off}) != nil {
		return false
	}
	for k := 0; k < o.unacked.n; k++ {
		if o.writeData(conn, o.unacked.at(k).c) != nil {
			return false
		}
	}
	o.inFlight = int(o.sendOff - o.ackOff)
	return true
}

// session drives one resynchronized connection's worth of the outbound
// stream.
func (o *outboundLink) session(conn net.Conn) (sessResult, net.Conn) {
	// The reader starts only after the first resync: it prefetches a
	// chunk the moment it runs, and a restarted sender must Rewind its
	// journal-backed source to the receiver's offset (resync) before
	// anyone reads from it. readerOnce keeps later sessions cheap, and a
	// rewind can only happen on the first resync, when the reader
	// provably has not started.
	o.startReader()
	// Buffered so the control reader runs ahead of a session busy
	// sending: a window's worth of ACKs rarely exceeds 16 frames.
	ctrl := make(chan ctrlEvent, 16)
	quit := make(chan struct{})
	defer close(quit)
	go readCtrl(conn, ctrl, quit)
	for {
		// The terminal frame waits until every staged chunk (pending and
		// the coalesce overflow slot) has been sent.
		if o.finishing && o.pending.data == nil && o.next.data == nil {
			return o.finishStream(conn, ctrl)
		}
		if o.pending.data == nil {
			if o.next.data != nil {
				o.pending, o.next = o.next, outChunk{}
				o.coalesce()
			} else {
				select {
				case chunk, ok := <-o.chunks:
					if !ok {
						o.finishing = true
						continue
					}
					o.pending = chunk
					o.coalesce()
				case ev := <-ctrl:
					if res, next := o.handleCtrl(ev, conn); res != sessContinue {
						return res, next
					}
					continue
				}
			}
		}
		// Flow control: wait for credit before sending, so the
		// receiving pipe's capacity bounds the channel end to end.
		if o.window > 0 && o.inFlight > 0 && o.inFlight+len(o.pending.data) > o.window {
			o.h.b.noteCreditStall()
		}
		for o.window > 0 && o.inFlight > 0 && o.inFlight+len(o.pending.data) > o.window {
			if res, next := o.handleCtrl(<-ctrl, conn); res != sessContinue {
				return res, next
			}
		}
		// A pending trace mark (set upstream on the pipe, or minted by
		// the broker's auto-sampler) rides ahead of the DATA frame it
		// tags. Trace frames carry no credit or offset and never enter
		// the replay queue — a mark lost to a reconnect just means that
		// batch goes unsampled.
		if id := o.takeTrace(); id != 0 {
			// Record the span before the frame is flushed: on a fast
			// loopback the receiver can decode and stamp wire-in before
			// this goroutine resumes, and a wire-out stamped after the
			// write would then read later than its own wire-in, breaking
			// the causal edge the merge aligns clocks on.
			o.h.b.noteSpan(o.token, "wire-out", id)
			if o.writeCtrl(conn, frame{kind: frameTrace, off: id}) != nil {
				conn.Close()
				return sessFailed, nil
			}
		}
		if o.writeData(conn, o.pending) != nil {
			conn.Close()
			return sessFailed, nil
		}
		o.inFlight += len(o.pending.data)
		o.unacked.push(o.sendOff, o.pending, o.frameMax)
		o.sendOff += uint64(len(o.pending.data))
		o.pending = outChunk{}
	}
}

// finishStream sends the terminal frame (EOF or REDIRECT) and waits for
// the receiver's BYE confirmation; if the connection dies first the
// session fails, and the next one re-sends the terminal frame — a lost
// EOF is otherwise indistinguishable from a lost peer. A MOVING that
// arrives instead of the BYE is a reader that moved while the final
// frame was in flight: the terminal frame is re-sent at its new host.
func (o *outboundLink) finishStream(conn net.Conn, ctrl chan ctrlEvent) (sessResult, net.Conn) {
	if o.srcErr != nil {
		conn.Close()
		o.end(o.srcErr)
		return sessDone, nil
	}
	if o.writeCtrl(conn, o.finalFrame()) != nil {
		conn.Close()
		return sessFailed, nil
	}
	for {
		ev := <-ctrl
		if ev.err == nil && ev.f.kind == frameBye {
			o.h.b.noteFrame(frameBye, false, 0)
			conn.Close()
			o.end(nil)
			return sessDone, nil
		}
		if res, next := o.handleCtrl(ev, conn); res != sessContinue {
			return res, next
		}
	}
}

// readCtrl forwards control frames from the reader host. Reads carry
// no deadline: a dead peer kills the session, which fails the read.
// Every send selects on quit: a session that ends without draining the
// channel (sessFailed, sessMoved) would otherwise strand this goroutine
// behind a full buffer for the process lifetime.
func readCtrl(conn net.Conn, ctrl chan<- ctrlEvent, quit <-chan struct{}) {
	scratch := make([]byte, 16)
	for {
		f, err := readFrameInto(conn, scratch)
		if err != nil {
			select {
			case ctrl <- ctrlEvent{err: err}:
			case <-quit:
			}
			return
		}
		select {
		case ctrl <- ctrlEvent{f: f}:
		case <-quit:
			return
		}
		if f.kind == frameMoving {
			return // connection is being abandoned
		}
	}
}

// inboundLink pumps received bytes into the local pipe behind a reader
// port. It opens every connection by announcing its delivered offset
// (RESUME) and treats a dead connection as an outage for its policy to
// heal or give up on.
type inboundLink struct {
	h   *Handle
	dst io.WriteCloser
	// traceDst is dst's trace-mark tap, nil when dst is not trace-aware.
	traceDst traceMarker

	// mu serializes control-direction writes (the session goroutine's
	// RESUME, ACK, BYE and CLOSEREAD share the conn with Move's MOVING)
	// and guards the fields below.
	mu sync.Mutex
	// conn is the live connection once its opening RESUME is on the
	// wire; nil between connections and after the link has ended.
	conn net.Conn
	// moving is the MOVING frame once Move has announced one (kind 0
	// until then); a connection opened later repeats it after RESUME.
	moving frame
	hdr    [16]byte // control-frame header staging

	// Owned by the run goroutine.
	res       Resilience
	serveRole bool
	dialAddr  string
	token     string
	delivered uint64 // bytes fully written into dst
}

func (i *inboundLink) sendMoving(addr, token string) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.conn == nil {
		return ErrNotConnected
	}
	i.moving = frame{kind: frameMoving, token: token, addr: addr}
	err := i.writeLocked(i.conn, i.moving)
	if err != nil {
		i.moving = frame{}
	}
	return err
}

// writeLocked writes one control frame; the caller holds mu.
func (i *inboundLink) writeLocked(conn net.Conn, f frame) error {
	err := writeFrameBuf(conn, f, i.hdr[:])
	if err == nil {
		i.h.b.noteFrame(f.kind, true, 0)
	}
	return err
}

// ctrlWrite writes one control frame from the session goroutine. No
// deadline: see outboundLink.writeCtrl.
func (i *inboundLink) ctrlWrite(conn net.Conn, f frame) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.writeLocked(conn, f)
}

// redial runs the initial-dial retry loop for DialInbound when the
// first attempt fails under a retry policy.
func (i *inboundLink) redial() {
	i.h.b.noteLink("retry")
	conn, err := i.h.b.reconnect(i.res, false, i.dialAddr, i.token, time.Now())
	if err != nil {
		i.degrade(err)
		return
	}
	i.run(conn)
}

// degrade ends the link after an outage its policy could not heal:
// the local reader is poisoned so the process network terminates by
// cascading close instead of hanging (§3.4), and the terminal error
// says that what the reader drained is only a prefix.
func (i *inboundLink) degrade(err error) {
	i.h.b.noteLink("fail")
	i.dst.Close()
	i.h.finish(fmt.Errorf("%w: %w", ErrTruncated, err))
}

func (i *inboundLink) run(conn net.Conn) {
	var outageStart time.Time
	for {
		done := false
		if i.open(conn) {
			outageStart = time.Time{}
			done = i.session(conn)
		}
		i.mu.Lock()
		i.conn = nil
		i.mu.Unlock()
		conn.Close()
		if done {
			return
		}
		if outageStart.IsZero() {
			outageStart = time.Now()
		}
		var err error
		if conn, err = i.h.b.reconnect(i.res, i.serveRole, i.dialAddr, i.token, outageStart); err != nil {
			i.degrade(err)
			return
		}
		i.h.b.noteLink("heal")
	}
}

// open performs the receiver half of the RESUME exchange that opens
// every connection: announce the delivered offset, publish the
// connection to Move (repeating a MOVING announced on an earlier
// connection — the outage may have swallowed it), and wait for the
// sender's confirmation. Publishing under the same lock hold as the
// RESUME write is what orders any MOVING behind the RESUME: the sender
// rejects a connection that opens with anything else.
func (i *inboundLink) open(conn net.Conn) bool {
	i.mu.Lock()
	err := i.writeLocked(conn, frame{kind: frameResume, off: i.delivered})
	if err == nil && i.moving.kind != 0 {
		err = i.writeLocked(conn, i.moving)
	}
	if err == nil {
		i.conn = conn
	}
	i.mu.Unlock()
	if err != nil {
		return false
	}
	i.h.markReady()
	conn.SetReadDeadline(time.Now().Add(i.res.resumeWait()))
	f, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil || f.kind != frameResume {
		return false
	}
	i.h.b.noteFrame(frameResume, false, 0)
	return true
}

// session drives one opened connection's worth of the inbound stream.
// It returns false when the connection died short of a terminal frame
// and the stream should resume on a fresh one.
func (i *inboundLink) session(conn net.Conn) (done bool) {
	// One pooled buffer serves every frame of the session: the payload
	// is copied into the local pipe before the next read, so the frame
	// reader can alias its scratch instead of allocating per frame. A
	// second pooled buffer holds unsealed DATA-C payloads — decode
	// output cannot alias the scratch the block itself sits in.
	scratch := getChunkBuf()
	defer putChunkBuf(scratch)
	dec := getChunkBuf()
	defer putChunkBuf(dec)
	for {
		f, err := readFrameInto(conn, *scratch)
		if err != nil {
			return false
		}
		if f.kind != frameData && f.kind != frameDataC {
			i.h.b.noteFrame(f.kind, false, len(f.payload))
		}
		switch f.kind {
		case frameTrace:
			// Causal trace mark for the next DATA frame: record the
			// wire-in span (the receiving half of the conduit edge the
			// multi-node merge aligns on) and re-mark the local pipe so
			// the trace survives further hops. Trace frames carry no
			// credit and do not advance the delivered offset.
			i.h.b.noteSpan(i.token, "wire-in", f.off)
			if i.traceDst != nil {
				i.traceDst.MarkTrace(f.off)
			}
		case frameData, frameDataC:
			payload := f.payload
			if f.kind == frameDataC {
				out, derr := blocks.DecodeBE((*dec)[:0], f.payload, coalesceMax)
				if derr != nil {
					// A block that fails its strict decode is wire
					// corruption, exactly like an unknown frame kind.
					i.dst.Close()
					i.h.finish(ErrBadFrame)
					return true
				}
				payload = out
			}
			i.h.b.noteData(f.kind, false, len(f.payload), len(payload))
			if _, err := i.dst.Write(payload); err != nil {
				// Local reader closed: cascade upstream (§3.4).
				i.ctrlWrite(conn, frame{kind: frameCloseRead})
				i.h.finish(nil)
				return true
			}
			i.delivered += uint64(len(payload))
			// Grant the sender credit for the consumed LOGICAL bytes —
			// the sender's window, offsets, and replay queue all count
			// the uncompressed stream.
			i.ctrlWrite(conn, frame{kind: frameAck, ack: len(payload)})
		case frameEOF, frameRedirect:
			if i.confirmFinal(conn, f) {
				return true
			}
		case frameFence:
			// We asked the writer to move to a new host; the stream
			// pauses here and resumes there. Do not close dst: the
			// migration machinery drains it into the descriptor.
			i.h.finish(nil)
			return true
		default:
			i.dst.Close()
			i.h.finish(ErrBadFrame)
			return true
		}
	}
}

// confirmFinal answers the sender's terminal frame with BYE and ends
// the link: EOF closes dst; REDIRECT (the writer end is moving, §4.3)
// re-arms the rendezvous on our broker with the announced token, where
// the writer's new host will connect directly. It all happens in one
// critical section, so a Move racing the end of the stream finds either
// a live connection or a finished link, never the gap between.
//
// With a MOVING already out it does nothing and reports false: the
// sender, still waiting for its BYE, answers the MOVING with a FENCE
// and re-sends the terminal frame to the reader's new host.
func (i *inboundLink) confirmFinal(conn net.Conn, f frame) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.moving.kind != 0 {
		return false
	}
	i.conn = nil
	i.writeLocked(conn, frame{kind: frameBye})
	if f.kind == frameEOF {
		i.dst.Close()
		i.h.finish(nil)
		return true
	}
	nh, err := i.h.b.ServeInbound(f.token, i.dst)
	if err != nil {
		i.h.finish(fmt.Errorf("netio: redirect re-arm: %w", err))
		return true
	}
	// Hand the replacement to whoever tracks this handle before
	// finishing, so the tracker never observes a gap — and seed the hook
	// on the replacement, so a further redirect keeps the chain alive.
	if hook := i.h.rearmHook(); hook != nil {
		nh.SetRearmHook(hook)
		hook(nh)
	}
	i.h.finish(nil)
	return true
}
