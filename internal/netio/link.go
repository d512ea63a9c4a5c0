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
// pool when the chunk is sent (resilient links: when it is fully
// acknowledged, since unacked chunks may be replayed).
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
// and that has no resilience to resume with: the local reader is still
// closed so the graph terminates (§3.4), but the stream it drained is
// a prefix of what the sender wrote, never to be mistaken for a clean
// end. Part of the consolidated sentinel set in
// internal/conduit/errs.go.
var ErrTruncated = errors.New("netio: stream ended before the sender's final frame")

// errLinkFailed terminates a non-resilient link whose connection died
// without a more specific cause; defined once so the terminal error of
// that path is errors.Is-comparable instead of freshly minted.
var errLinkFailed = errors.New("netio: link failed")

// Resilience configures fault tolerance for every link of a broker.
// With resilience enabled, the broker's sessions heartbeat the peer
// every HeartbeatEvery and die after MissDeadline of silence (see
// muxConfig), and a link treats the death of the session under it as
// an outage to heal rather than the end of the channel: the dialer
// side re-dials with jittered exponential backoff, the serving side
// re-arms its rendezvous token, and a RESUME handshake (the receiver
// announces its delivered byte offset, the sender replays everything
// after it) resynchronizes the stream and its credit window. An outage
// that outlasts LinkDeadline degrades into the normal cascading close:
// the local channel end is poisoned and the process network terminates
// cleanly instead of hanging.
//
// Resilience changes the wire protocol (RESUME opens every
// connection), so it must be enabled on every broker of a distributed
// graph or on none.
type Resilience struct {
	// HeartbeatEvery is the session's PING interval, sent in both
	// directions so either side can detect a dead peer.
	HeartbeatEvery time.Duration
	// MissDeadline is how long a session may stay silent, or a write
	// may stall, before the peer is declared dead; it also bounds the
	// RESUME handshake and every link control write.
	MissDeadline time.Duration
	// RetryBase is the first reconnect backoff; it doubles per attempt.
	RetryBase time.Duration
	// RetryMax caps the reconnect backoff.
	RetryMax time.Duration
	// LinkDeadline bounds one outage: a link that cannot resynchronize
	// within this window degrades into a cascading close.
	LinkDeadline time.Duration
	// Seed seeds the backoff jitter.
	Seed int64
}

// DefaultResilience returns production-shaped resilience settings.
func DefaultResilience() Resilience {
	return Resilience{
		HeartbeatEvery: 500 * time.Millisecond,
		MissDeadline:   2 * time.Second,
		RetryBase:      25 * time.Millisecond,
		RetryMax:       time.Second,
		LinkDeadline:   15 * time.Second,
	}
}

// linkSeq decorrelates per-link backoff jitter streams.
var linkSeq atomic.Int64

func newLinkRNG(res *Resilience) *rand.Rand {
	if res == nil {
		return nil
	}
	return rand.New(rand.NewSource(res.Seed + linkSeq.Add(1)))
}

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

// WaitReady blocks until the link is connected (or the timeout
// elapses).
func (h *Handle) WaitReady() error {
	select {
	case <-h.ready:
		return nil
	case <-time.After(rendezvousTimeout):
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

func (h *Handle) markReady(peerAddr string) {
	h.mu.Lock()
	if !h.active {
		h.active = true
		h.peerAddr = peerAddr
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
// buffer capacity). With resilience enabled a failed dial is retried
// with backoff in the background instead of failing the call.
func (b *Broker) DialOutbound(addr, token string, src io.ReadCloser, window int) (*Handle, error) {
	h := newHandle(b, true)
	h.out = b.newOutbound(h, src, window, false, addr, token)
	conn, err := b.dial(addr, token)
	if err != nil {
		if h.out.res == nil {
			return nil, err
		}
		go h.out.redial(addr)
		return h, nil
	}
	h.markReady(addr)
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
		h.markReady(peerAddr)
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
	res := b.resilience()
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
		res:       res,
		rng:       newLinkRNG(res),
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
	h.in = b.newInbound(h, dst, false, addr, token)
	conn, err := b.dial(addr, token)
	if err != nil {
		if h.in.res == nil {
			return nil, err
		}
		go h.in.redial(addr)
		return h, nil
	}
	h.markReady(addr)
	h.in.setConn(conn)
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
		h.in.setConn(conn)
		h.markReady(peerAddr)
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
	res := b.resilience()
	tm, _ := dst.(traceMarker)
	i := &inboundLink{
		h:         h,
		dst:       dst,
		traceDst:  tm,
		res:       res,
		rng:       newLinkRNG(res),
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

// reconnect reestablishes one side of a broken link. The dialer role
// re-dials the peer with jittered exponential backoff; the serving
// role re-arms its rendezvous token and waits. Both are bounded by the
// outage's LinkDeadline.
func (b *Broker) reconnect(res *Resilience, rng *rand.Rand, serve bool, addr, token string, outageStart time.Time) (net.Conn, error) {
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
		select {
		case <-b.closedCh:
			return nil, ErrBrokerClosed
		default:
		}
		conn, err := b.dial(addr, token)
		if err == nil {
			return conn, nil
		}
		b.noteLink("retry")
		wait := backoff
		if rng != nil {
			// Decorrelated jitter in [backoff/2, backoff].
			half := backoff / 2
			wait = half + time.Duration(rng.Int63n(int64(half)+1))
		}
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

// sentChunk is one unacknowledged DATA payload retained for replay,
// keyed by its logical stream offset. It keeps the chunk's pooled
// backing buffer alive until the receiver confirms delivery.
type sentChunk struct {
	off uint64
	c   outChunk
}

// outboundLink pumps a local byte source to the remote reader host,
// subject to a credit window: at most `window` bytes may be
// unacknowledged, so the receiver's bounded pipe governs the sender's
// progress end to end. With resilience enabled it retains unacked
// chunks and replays them after a reconnect, trimming to the offset
// the receiver announces in its RESUME frame.
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

	// resilient state; untouched when res == nil. All fields below are
	// owned by the run goroutine.
	res       *Resilience
	rng       *rand.Rand
	serveRole bool
	dialAddr  string
	token     string
	sendOff   uint64 // logical stream offset after the last sent chunk
	ackOff    uint64 // offset the receiver has confirmed delivered
	unacked   []sentChunk
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

// writeLink writes one frame, bounded by MissDeadline when resilient
// (a write that cannot drain is a dead or partitioned peer; the
// replay buffer makes a false positive merely wasteful, not wrong).
func (o *outboundLink) writeLink(conn net.Conn, f frame) error {
	if o.res != nil {
		conn.SetWriteDeadline(time.Now().Add(o.res.MissDeadline))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return writeFrameBuf(conn, f, o.hdr[:])
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
	if c.orig == nil || c.start < frameHdrLen {
		err := o.writeLink(conn, frame{kind: frameData, payload: c.data})
		if err == nil {
			o.h.b.noteData(frameData, true, n, n)
		}
		return err
	}
	if o.res != nil {
		conn.SetWriteDeadline(time.Now().Add(o.res.MissDeadline))
		defer conn.SetWriteDeadline(time.Time{})
	}
	full := (*c.orig)[c.start-frameHdrLen : c.start+n]
	full[0] = frameData
	binary.BigEndian.PutUint32(full[1:frameHdrLen], uint32(n))
	_, err := conn.Write(full)
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
// never modified: flow control, the RESUME offsets, and the unacked
// replay buffer all keep working in logical (uncompressed) bytes, and
// a replayed chunk is simply re-sealed here.
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
	if o.res != nil {
		conn.SetWriteDeadline(time.Now().Add(o.res.MissDeadline))
		defer conn.SetWriteDeadline(time.Time{})
	}
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
		room := o.frameMax - len(o.pending.data)
		if avail := len(*o.pending.orig) - (o.pending.start + len(o.pending.data)); avail < room {
			room = avail
		}
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
			tail := o.pending.start + len(o.pending.data)
			copy((*o.pending.orig)[tail:], c.data)
			o.pending.data = (*o.pending.orig)[o.pending.start : tail+len(c.data)]
			c.release()
			o.h.b.noteCoalesced()
		default:
			return
		}
	}
}

// redial runs the initial-dial retry loop for DialOutbound when the
// first attempt fails under resilience.
func (o *outboundLink) redial(addr string) {
	o.h.b.noteLink("retry")
	conn, err := o.h.b.reconnect(o.res, o.rng, false, addr, o.token, time.Now())
	if err != nil {
		o.h.b.noteLink("fail")
		o.src.Close()
		o.h.finish(err)
		return
	}
	o.h.markReady(addr)
	o.run(conn)
}

type ctrlEvent struct {
	f   frame
	err error
}

// ctrlOutcome describes how a control event changes the sender's
// state.
type ctrlOutcome int

const (
	ctrlContinue ctrlOutcome = iota // credit absorbed; keep going
	ctrlStop                        // link is over (peer gone or reader closed)
	ctrlMoved                       // reconnected to a new host; restart the session
	ctrlFailed                      // connection dead; resilient reconnect wanted
)

// trimUnacked drops (or slices) retained chunks the receiver has
// confirmed up to off. Fully confirmed chunks return their pooled
// buffer; a partially confirmed chunk keeps its buffer (the remaining
// bytes may be replayed) and its headroom invariant (start only grows).
func (o *outboundLink) trimUnacked(off uint64) {
	for len(o.unacked) > 0 {
		sc := o.unacked[0]
		end := sc.off + uint64(len(sc.c.data))
		if end <= off {
			sc.c.release()
			o.unacked[0] = sentChunk{}
			o.unacked = o.unacked[1:]
			continue
		}
		if sc.off < off {
			delta := int(off - sc.off)
			sc.c.data = sc.c.data[delta:]
			sc.c.start += delta
			sc.off = off
			o.unacked[0] = sc
		}
		return
	}
}

// dropUnacked abandons the replay buffer (stream offsets rebase, e.g.
// after a MOVING fence, or a restart rewind in resync) and returns its
// pooled buffers.
//
// Compression audit: a rebase can land mid-chunk (trimUnacked slices a
// partially acked chunk, leaving a remainder that may not be
// 8-aligned), but it can never land mid-BLOCK on the wire. DATA-C
// blocks are sealed per frame at write time (writeCompressed) and
// never retained: the replay buffer holds logical bytes, and a
// replayed or sliced chunk is re-trialed from scratch — a non-aligned
// remainder simply fails the n%8 gate in writeData and ships raw. The
// receiver therefore always decodes whole, freshly sealed blocks;
// resuming decode inside a previously sealed block is structurally
// impossible. TestRebaseMidChunkCompressedReplay pins this down.
func (o *outboundLink) dropUnacked() {
	for i := range o.unacked {
		o.unacked[i].c.release()
	}
	o.unacked = nil
}

// handleCtrl processes one control event. On ctrlMoved the connection
// to the reader's new host is returned.
func (o *outboundLink) handleCtrl(ev ctrlEvent, conn net.Conn) (ctrlOutcome, net.Conn) {
	if ev.err == nil {
		o.h.b.noteFrame(ev.f.kind, false, 0)
	}
	switch {
	case ev.err != nil:
		conn.Close()
		if o.res != nil {
			return ctrlFailed, nil
		}
		// Peer vanished: poison the local writer so the process network
		// observes termination (§3.4 across machines).
		o.src.Close()
		o.h.finish(nil)
		return ctrlStop, nil
	case ev.f.kind == frameAck:
		o.inFlight -= ev.f.ack
		if o.inFlight < 0 {
			o.inFlight = 0
		}
		if o.res != nil {
			o.ackOff += uint64(ev.f.ack)
			o.trimUnacked(o.ackOff)
			if o.ackSrc != nil {
				o.ackSrc.Acked(o.ackOff)
			}
		}
		return ctrlContinue, nil
	case ev.f.kind == frameCloseRead:
		// Remote reader closed: cascade the exception upstream.
		conn.Close()
		o.src.Close()
		o.h.finish(nil)
		return ctrlStop, nil
	case ev.f.kind == frameMoving:
		// Reader host is moving: fence this connection and reconnect
		// directly to the new host. Every pre-fence byte lands in the
		// old host's leftover buffer and travels inside the migration
		// parcel, so the stream offsets rebase to zero.
		writeFrame(conn, frame{kind: frameFence})
		o.h.b.noteFrame(frameFence, true, 0)
		conn.Close()
		o.inFlight = 0
		o.dropUnacked()
		o.sendOff, o.ackOff = 0, 0
		o.serveRole = false
		o.dialAddr = ev.f.addr
		o.token = ev.f.token
		var newConn net.Conn
		var err error
		if o.res != nil {
			newConn, err = o.h.b.reconnect(o.res, o.rng, false, ev.f.addr, ev.f.token, time.Now())
		} else {
			newConn, err = o.h.b.dial(ev.f.addr, ev.f.token)
		}
		if err != nil {
			o.src.Close()
			o.h.finish(fmt.Errorf("netio: reconnect after MOVING: %w", err))
			return ctrlStop, nil
		}
		o.h.mu.Lock()
		o.h.peerAddr = ev.f.addr
		o.h.mu.Unlock()
		return ctrlMoved, newConn
	default:
		return ctrlContinue, nil
	}
}

type sessResult int

const (
	sessDone sessResult = iota
	sessMoved
	sessFailed
)

func (o *outboundLink) run(conn net.Conn) {
	var outageStart time.Time
	for {
		res, next, progressed := o.session(conn)
		if progressed {
			outageStart = time.Time{}
		}
		switch res {
		case sessDone:
			return
		case sessMoved:
			conn = next
			outageStart = time.Time{}
		case sessFailed:
			if o.res == nil {
				// Legacy sessions finish before failing; defensive only.
				o.src.Close()
				o.h.finish(errLinkFailed)
				return
			}
			if outageStart.IsZero() {
				outageStart = time.Now()
			}
			next, err := o.h.b.reconnect(o.res, o.rng, o.serveRole, o.dialAddr, o.token, outageStart)
			if err != nil {
				o.h.b.noteLink("fail")
				o.src.Close()
				if o.finishing && o.srcErr == nil && len(o.unacked) == 0 {
					// Every byte was confirmed delivered; only the terminal
					// frame's confirmation is outstanding. The receiver
					// degrades independently, so this end shuts down clean.
					// Unacked bytes mean possible data loss and must surface
					// as a link failure, not a clean close.
					o.h.finish(nil)
				} else {
					o.h.finish(err)
				}
				return
			}
			o.h.b.noteLink("heal")
			conn = next
		}
	}
}

// resync performs the sender half of the RESUME handshake: the
// receiver speaks first, announcing its delivered offset; the sender
// confirms the offset it resumes from (the receiver waits for that, see
// inboundLink.session), retained chunks past it are replayed and the
// credit window is recomputed from it.
func (o *outboundLink) resync(conn net.Conn) bool {
	conn.SetReadDeadline(time.Now().Add(o.res.MissDeadline))
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
		// reader goroutine has not started (see session), so no chunk is
		// staged and the replay buffer is empty.
		if o.rewindSrc == nil || o.rewindSrc.Rewind(off) != nil {
			// A plain source cannot skip; the streams have genuinely
			// diverged (e.g. mismatched journal dir). Fail the session —
			// the link degrades at LinkDeadline rather than corrupting
			// the stream.
			return false
		}
		o.dropUnacked()
		o.sendOff = off
	}
	o.ackOff = off
	o.trimUnacked(off)
	if o.ackSrc != nil {
		o.ackSrc.Acked(off)
	}
	if err := o.writeLink(conn, frame{kind: frameResume, off: off}); err != nil {
		return false
	}
	o.h.b.noteFrame(frameResume, true, 0)
	for _, sc := range o.unacked {
		if err := o.writeData(conn, sc.c); err != nil {
			return false
		}
	}
	o.inFlight = int(o.sendOff - o.ackOff)
	return true
}

// session drives one connection's worth of the outbound stream. It
// returns sessFailed (resilient mode only) when the connection died
// and the stream should resume on a fresh one.
func (o *outboundLink) session(conn net.Conn) (sessResult, net.Conn, bool) {
	progressed := false
	if o.res != nil {
		if !o.resync(conn) {
			conn.Close()
			return sessFailed, nil, false
		}
		progressed = true
	}
	// The reader starts only after the first resync: it prefetches a
	// chunk the moment it runs, and a restarted sender must Rewind its
	// journal-backed source to the receiver's offset (resync above)
	// before anyone reads from it. readerOnce keeps later sessions
	// cheap, and a rewind can only happen on the first resync, when the
	// reader provably has not started.
	o.startReader()
	ctrl := make(chan ctrlEvent, 16)
	quit := make(chan struct{})
	defer close(quit)
	go readCtrl(conn, ctrl, quit)
	for {
		// The terminal frame waits until every staged chunk (pending and
		// the coalesce overflow slot) has been sent.
		if o.finishing && o.pending.data == nil && o.next.data == nil {
			res, next := o.finishStream(conn, ctrl)
			return res, next, progressed
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
					switch out, next := o.handleCtrl(ev, conn); out {
					case ctrlStop:
						return sessDone, nil, progressed
					case ctrlFailed:
						return sessFailed, nil, progressed
					case ctrlMoved:
						return sessMoved, next, progressed
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
			switch out, next := o.handleCtrl(<-ctrl, conn); out {
			case ctrlStop:
				return sessDone, nil, progressed
			case ctrlFailed:
				return sessFailed, nil, progressed
			case ctrlMoved:
				return sessMoved, next, progressed
			}
		}
		// A pending trace mark (set upstream on the pipe, or minted by
		// the broker's auto-sampler) rides ahead of the DATA frame it
		// tags. Trace frames carry no credit or offset and never enter
		// the replay buffer — a mark lost to a reconnect just means that
		// batch goes unsampled.
		if id := o.takeTrace(); id != 0 {
			// Record the span before the frame is flushed: on a fast
			// loopback the receiver can decode and stamp wire-in before
			// this goroutine resumes, and a wire-out stamped after the
			// write would then read later than its own wire-in, breaking
			// the causal edge the merge aligns clocks on.
			o.h.b.noteSpan(o.token, "wire-out", id)
			if err := o.writeLink(conn, frame{kind: frameTrace, off: id}); err != nil {
				conn.Close()
				if o.res != nil {
					return sessFailed, nil, progressed
				}
				o.src.Close()
				o.h.finish(fmt.Errorf("netio: send failed: %w", err))
				return sessDone, nil, progressed
			}
			o.h.b.noteFrame(frameTrace, true, 0)
		}
		chunk := o.pending
		if err := o.writeData(conn, chunk); err != nil {
			conn.Close()
			if o.res != nil {
				return sessFailed, nil, progressed
			}
			o.src.Close()
			o.h.finish(fmt.Errorf("netio: send failed: %w", err))
			return sessDone, nil, progressed
		}
		o.inFlight += len(chunk.data)
		if o.res != nil {
			o.unacked = append(o.unacked, sentChunk{off: o.sendOff, c: chunk})
			o.sendOff += uint64(len(chunk.data))
		} else {
			chunk.release()
		}
		o.pending = outChunk{}
	}
}

// finishStream sends the terminal frame (EOF or REDIRECT) and shuts
// the link down. With resilience the sender waits for the receiver's
// BYE confirmation, reconnecting and re-sending the terminal frame if
// the connection dies first — a lost EOF is otherwise indistinguishable
// from a lost peer.
func (o *outboundLink) finishStream(conn net.Conn, ctrl chan ctrlEvent) (sessResult, net.Conn) {
	if o.res == nil {
		err := o.srcErr
		if err == nil {
			final := o.finalFrame()
			err = writeFrame(conn, final)
			if err == nil {
				o.h.b.noteFrame(final.kind, true, 0)
			}
		}
		// Closing a stream delivers everything written before the close,
		// so the link need not wait for the receiver's ACKs.
		conn.Close()
		o.h.finish(err)
		return sessDone, nil
	}
	if o.srcErr != nil {
		conn.Close()
		o.h.finish(o.srcErr)
		return sessDone, nil
	}
	final := o.finalFrame()
	if err := o.writeLink(conn, final); err != nil {
		conn.Close()
		return sessFailed, nil
	}
	o.h.b.noteFrame(final.kind, true, 0)
	for {
		ev := <-ctrl
		if ev.err == nil && ev.f.kind == frameBye {
			o.h.b.noteFrame(frameBye, false, 0)
			conn.Close()
			o.src.Close()
			o.h.finish(nil)
			return sessDone, nil
		}
		switch out, next := o.handleCtrl(ev, conn); out {
		case ctrlStop:
			return sessDone, nil
		case ctrlFailed:
			return sessFailed, nil
		case ctrlMoved:
			return sessMoved, next
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
// port. With resilience it opens every connection by announcing its
// delivered offset (RESUME) and treats a dead connection as an outage
// to heal.
type inboundLink struct {
	h   *Handle
	dst io.WriteCloser
	// traceDst is dst's trace-mark tap, nil when dst is not trace-aware.
	traceDst traceMarker

	mu     sync.Mutex
	conn   net.Conn
	moving bool

	// hdr stages control-frame headers; guarded by mu (ctrlWrite).
	hdr [16]byte

	// resilient state; owned by the run goroutine.
	res       *Resilience
	rng       *rand.Rand
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
	i.moving = true
	err := writeFrame(i.conn, frame{kind: frameMoving, token: token, addr: addr})
	if err == nil {
		i.h.b.noteFrame(frameMoving, true, 0)
	}
	return err
}

func (i *inboundLink) setConn(conn net.Conn) {
	i.mu.Lock()
	i.conn = conn
	i.mu.Unlock()
}

// ctrlWrite serializes control-direction writes (the session
// goroutine's ACK, RESUME, BYE and CLOSEREAD share the conn with
// sendMoving), bounded by MissDeadline when resilient.
func (i *inboundLink) ctrlWrite(conn net.Conn, f frame) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.res != nil {
		conn.SetWriteDeadline(time.Now().Add(i.res.MissDeadline))
		defer conn.SetWriteDeadline(time.Time{})
	}
	return writeFrameBuf(conn, f, i.hdr[:])
}

// redial runs the initial-dial retry loop for DialInbound when the
// first attempt fails under resilience.
func (i *inboundLink) redial(addr string) {
	i.h.b.noteLink("retry")
	conn, err := i.h.b.reconnect(i.res, i.rng, false, addr, i.token, time.Now())
	if err != nil {
		i.h.b.noteLink("fail")
		i.dst.Close()
		i.h.finish(err)
		return
	}
	i.h.markReady(addr)
	i.setConn(conn)
	i.run(conn)
}

func (i *inboundLink) run(conn net.Conn) {
	var outageStart time.Time
	for {
		done, progressed := i.session(conn)
		if progressed {
			outageStart = time.Time{}
		}
		if done {
			return
		}
		if i.res == nil {
			return // legacy sessions always finish
		}
		if outageStart.IsZero() {
			outageStart = time.Now()
		}
		next, err := i.h.b.reconnect(i.res, i.rng, i.serveRole, i.dialAddr, i.token, outageStart)
		if err != nil {
			// Degrade: poison the local reader so the process network
			// terminates by cascading close instead of hanging (§3.4).
			i.h.b.noteLink("fail")
			i.dst.Close()
			i.h.finish(err)
			return
		}
		i.h.b.noteLink("heal")
		i.setConn(next)
		conn = next
	}
}

// session drives one connection's worth of the inbound stream. It
// returns done=false (resilient mode only) when the connection died
// and the stream should resume on a fresh one.
func (i *inboundLink) session(conn net.Conn) (done, progressed bool) {
	if i.res != nil {
		if err := i.ctrlWrite(conn, frame{kind: frameResume, off: i.delivered}); err != nil {
			conn.Close()
			return false, false
		}
		i.h.b.noteFrame(frameResume, true, 0)
		// The sender confirms RESUME before anything else, and only that
		// wait is bounded: the session under the stream answers for the
		// peer host, not for the peer link — the peer's broker parks a
		// stream whose link is gone, and would leave this end waiting on
		// a healthy session forever.
		conn.SetReadDeadline(time.Now().Add(i.res.MissDeadline))
	}
	resuming := i.res != nil
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
			i.mu.Lock()
			moving := i.moving
			i.mu.Unlock()
			conn.Close()
			if moving {
				// We initiated a move and the fence may have raced the
				// close; the migration machinery drains the pipe, so do
				// not close dst.
				i.h.finish(nil)
				return true, progressed
			}
			if i.res != nil {
				return false, progressed
			}
			// Connection lost short of the sender's final frame: close the
			// data stream so the local reader terminates, and say that what
			// it drained is only a prefix.
			i.dst.Close()
			i.h.finish(ErrTruncated)
			return true, progressed
		}
		if f.kind != frameData && f.kind != frameDataC {
			i.h.b.noteFrame(f.kind, false, len(f.payload))
		}
		if resuming {
			if f.kind != frameResume {
				conn.Close()
				return false, progressed
			}
			conn.SetReadDeadline(time.Time{})
			resuming = false
			progressed = true
			continue
		}
		progressed = true
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
					conn.Close()
					i.dst.Close()
					i.h.finish(ErrBadFrame)
					return true, progressed
				}
				payload = out
			}
			i.h.b.noteData(f.kind, false, len(f.payload), len(payload))
			if _, err := i.dst.Write(payload); err != nil {
				// Local reader closed: cascade upstream (§3.4).
				i.ctrlWrite(conn, frame{kind: frameCloseRead})
				i.h.b.noteFrame(frameCloseRead, true, 0)
				conn.Close()
				i.h.finish(nil)
				return true, progressed
			}
			i.delivered += uint64(len(payload))
			// Grant the sender credit for the consumed LOGICAL bytes —
			// the sender's window, offsets, and replay buffer all count
			// the uncompressed stream.
			i.ctrlWrite(conn, frame{kind: frameAck, ack: len(payload)})
			i.h.b.noteFrame(frameAck, true, 0)
		case frameEOF:
			if i.res != nil {
				if i.ctrlWrite(conn, frame{kind: frameBye}) == nil {
					i.h.b.noteFrame(frameBye, true, 0)
				}
			}
			i.dst.Close()
			conn.Close()
			i.h.finish(nil)
			return true, progressed
		case frameFence:
			// We asked the writer to move to a new host; the stream
			// pauses here and resumes there. Do not close dst: the
			// migration machinery drains it into the descriptor.
			conn.Close()
			i.h.finish(nil)
			return true, progressed
		case frameRedirect:
			// Writer end is moving: re-arm the rendezvous on our broker
			// with the announced token; the writer's new host will
			// connect directly (§4.3).
			if i.res != nil {
				if i.ctrlWrite(conn, frame{kind: frameBye}) == nil {
					i.h.b.noteFrame(frameBye, true, 0)
				}
			}
			nh, err := i.h.b.ServeInbound(f.token, i.dst)
			conn.Close()
			if err != nil {
				i.h.finish(fmt.Errorf("netio: redirect re-arm: %w", err))
				return true, progressed
			}
			// Hand the replacement to whoever tracks this handle before
			// finishing, so the tracker never observes a gap — and seed
			// the hook on the replacement, so a further redirect keeps
			// the chain alive.
			if hook := i.h.rearmHook(); hook != nil {
				nh.SetRearmHook(hook)
				hook(nh)
			}
			i.h.finish(nil)
			return true, progressed
		default:
			conn.Close()
			i.dst.Close()
			i.h.finish(ErrBadFrame)
			return true, progressed
		}
	}
}
