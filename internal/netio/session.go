package netio

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// A session is the one authenticated connection a broker holds per
// peer broker (§4.2's socket per channel, inverted). After the
// handshake (handshake.go) it carries one stream per channel link, each
// opened by its HELLO: the link's frames, each one session frame
// (frames.go), with no credit, ring or header of its own. The link's
// window is the one flow control; the session only keeps a peer from
// using more memory than that window allows (the inbox bound, admit).
//
// The session is the wire's one liveness probe: its keepalive and write
// bound decide when the peer is gone, and every stream fails with it.
// Its read loop never blocks on a link and never writes, so a slow
// consumer stalls only its own link, and the two directions of a
// connection cannot deadlock.

// maxStreams bounds the live streams of one session.
const maxStreams = 4096

const (
	defaultKeepAlive = 15 * time.Second
	defaultTimeout   = 3 * defaultKeepAlive
)

var (
	// ErrSessionClosed is returned by stream operations after the
	// session was closed deliberately (Close or a peer GO frame).
	// Aliased in internal/conduit/errs.go.
	ErrSessionClosed = errors.New("netio: session closed")

	// ErrStreamLimit is returned by a dial whose session already carries
	// maxStreams streams. Aliased in internal/conduit/errs.go.
	ErrStreamLimit = errors.New("netio: stream limit reached")

	// ErrStreamReset is returned by a stream the peer does not know: it
	// answered one of its frames with RST. Aliased in
	// internal/conduit/errs.go.
	ErrStreamReset = errors.New("netio: stream reset by peer")

	// errKeepAlive wraps the deadline sentinel so a session that died of
	// silence and one that died of a stalled write classify alike.
	errKeepAlive = fmt.Errorf("netio: session keepalive: %w", os.ErrDeadlineExceeded)

	// errOverrun is a peer that sent past the inbox bound.
	errOverrun = fmt.Errorf("%w: peer overran the link's window", ErrBadFrame)
)

type session struct {
	b       *Broker
	conn    net.Conn
	peer    string // the peer broker's announced address
	timeout time.Duration
	lastRcv atomic.Int64           // UnixNano of the last frame received
	spare   atomic.Pointer[[]byte] // an inbox buffer kept out of the pool

	wmu  sync.Mutex
	wbuf []byte // the session's own frames
	werr error

	// openMu makes stream-id allocation and the HELLO write one step:
	// the peer rejects an id at or below the last it saw, so HELLOs must
	// reach the wire in id order.
	openMu sync.Mutex

	mu       sync.Mutex
	streams  map[uint32]*muxStream
	nextID   uint32 // next locally opened stream id: odd from the dialer, even from the acceptor
	lastPeer uint32 // highest peer-opened stream id seen
	closed   bool
	err      error
	done     chan struct{}
}

// newSession builds the session of a handshaken conn; start runs it.
// The broker's retry policy sets the PING interval and the bound on
// peer silence and on a stalled write (zero selects the defaults).
func (b *Broker) newSession(conn net.Conn, peer string, dialer bool) *session {
	res := b.resilience()
	s := &session{b: b, conn: conn, peer: peer, timeout: res.MissDeadline,
		streams: make(map[uint32]*muxStream), nextID: 2, done: make(chan struct{})}
	if s.timeout <= 0 {
		s.timeout = defaultTimeout
	}
	if dialer {
		s.nextID = 1 // the peer's ids have the other parity
	}
	return s
}

// start runs the session: its read loop, and unless the policy disables
// it, its keepalive. An accepted session is pooled first, so no stream
// the peer opens can finish before this broker's own dials can find the
// session.
func (s *session) start() {
	// The handshake was bounded by a conn deadline; from here the session
	// bounds each write, and the keepalive the silence.
	s.conn.SetDeadline(time.Time{})
	s.lastRcv.Store(time.Now().UnixNano())
	go s.readLoop()
	if ka := s.b.resilience().HeartbeatEvery; ka >= 0 {
		if ka == 0 {
			ka = defaultKeepAlive
		}
		go s.keepalive(ka)
	}
}

// Err reports why the session died (nil while alive).
func (s *session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// open opens a stream toward the peer with its HELLO. A HELLO that
// fails leaves the stream closed, and returned with the error.
func (s *session) open(token, addr string) (*muxStream, error) {
	s.openMu.Lock()
	defer s.openMu.Unlock()
	s.mu.Lock()
	err := s.err
	if !s.closed && len(s.streams) >= maxStreams {
		err = ErrStreamLimit
	}
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	st := s.add(s.nextID)
	s.nextID += 2
	s.mu.Unlock()
	w := frameWriter{w: st, id: st.id}
	w.frame(frame{kind: frameHello, token: token, addr: addr})
	if err := w.flush(); err != nil {
		st.Close()
		return st, err
	}
	return st, nil
}

// add enters a stream into the table; the caller holds s.mu.
func (s *session) add(id uint32) *muxStream {
	st := &muxStream{id: id, s: s, wake: make(chan struct{}, 1)}
	s.streams[id] = st
	s.b.noteMuxStreams(s.b.muxLiveStreams.Add(1))
	return st
}

func (s *session) remove(st *muxStream) {
	s.mu.Lock()
	live := s.streams[st.id] == st
	if live {
		delete(s.streams, st.id)
	}
	s.mu.Unlock()
	if live {
		s.b.noteMuxStreams(s.b.muxLiveStreams.Add(-1))
	}
}

// Close tears the session down deliberately: a best-effort GO frame
// tells the peer, every stream fails with ErrSessionClosed, and the
// connection closes.
func (s *session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	// Settle the cause first: the peer answers GO by hanging up, and the
	// read loop's EOF must not beat the fail below to it.
	s.err = ErrSessionClosed
	s.mu.Unlock()
	s.ctrl(kindGo, 0) // best effort; fail handles a dead conn
	s.fail(ErrSessionClosed)
	return nil
}

// fail kills the session with err: closes the conn, fails every stream
// behind the frames it holds, and releases done. Idempotent; the first
// cause wins, and a deliberate Close is always first.
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.err == nil {
		s.err = err
	}
	err = s.err
	streams := s.streams
	s.streams = make(map[uint32]*muxStream)
	s.mu.Unlock()
	s.conn.Close()
	for _, st := range streams {
		st.end(err)
		s.b.noteMuxStreams(s.b.muxLiveStreams.Add(-1))
	}
	close(s.done)
}

// write issues b — whole frames — as one conn.Write, so a frame costs
// one syscall. The lock serializes frames and, by the mutex's
// starvation mode, hands the wire to waiting links in FIFO order.
func (s *session) write(b []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.writeLocked(b)
}

func (s *session) writeLocked(b []byte) error {
	if s.werr != nil {
		return s.werr
	}
	s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	if _, err := s.conn.Write(b); err != nil {
		// Report the session's cause, not this write's symptom: the conn
		// may have been closed under us by a fail already in progress.
		s.fail(err)
		s.werr = s.Err()
	}
	return s.werr
}

// ctrl writes one of the session's own frames.
func (s *session) ctrl(kind byte, id uint32) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.wbuf, _ = appendFrame(s.wbuf[:0], id, frame{kind: kind})
	return s.writeLocked(s.wbuf)
}

func (s *session) keepalive(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			if time.Duration(time.Now().UnixNano()-s.lastRcv.Load()) > s.timeout {
				s.fail(errKeepAlive)
				return
			}
			s.ctrl(kindPing, 0)
		}
	}
}

// readLoop is the only reader of the conn: it reads each frame into its
// stream's inbox, and never writes — an RST goes out from a goroutine
// of its own.
func (s *session) readLoop() {
	var hdr [frameHdrLen]byte
	for {
		if _, err := io.ReadFull(s.conn, hdr[:]); err != nil {
			s.fail(err)
			return
		}
		s.lastRcv.Store(time.Now().UnixNano())
		if err := s.route(hdr[:]); err != nil {
			s.fail(err)
			return
		}
	}
}

// route reads the body of the frame headed by hdr and hands it on.
func (s *session) route(hdr []byte) error {
	kind, id, n := parseHeader(hdr)
	if _, _, ok := layout(kind); !ok || n > FrameMax {
		return fmt.Errorf("%w: session frame %q of %d bytes", ErrBadFrame, kind, n)
	}
	switch kind {
	case kindGo:
		return ErrSessionClosed
	case frameHello:
		return s.hello(hdr, id, n)
	}
	s.mu.Lock()
	st := s.streams[id]
	s.mu.Unlock()
	switch {
	case st != nil && kind != kindPing:
		return st.push(s.conn, hdr, n)
	case st == nil && kind != kindPing && kind != kindFin && kind != kindRst:
		// No HELLO opened it, or it is gone: tell the peer to stop.
		// RST never answers FIN or RST, so no RST loops.
		go s.ctrl(kindRst, id)
	}
	return discard(s.conn, n)
}

// hello opens the stream the peer's HELLO names and hands it to the
// rendezvous it is for.
func (s *session) hello(hdr []byte, id uint32, n int) error {
	rec := append(append([]byte(nil), hdr...), make([]byte, n)...)
	if _, err := io.ReadFull(s.conn, rec[frameHdrLen:]); err != nil {
		return err
	}
	f, err := decodeFrame(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if id%2 == s.nextID%2 || id <= s.lastPeer {
		s.mu.Unlock()
		return fmt.Errorf("%w: peer opened invalid stream id %d", ErrBadFrame, id)
	}
	s.lastPeer = id
	if s.closed || len(s.streams) >= maxStreams {
		s.mu.Unlock()
		go s.ctrl(kindRst, id)
		return nil
	}
	st := s.add(id)
	s.mu.Unlock()
	s.b.noteFrame(frameHello, false)
	s.b.arrive(st, f.token, f.addr)
	return nil
}

func discard(r io.Reader, n int) error {
	_, err := io.CopyN(io.Discard, r, int64(n))
	return err
}

// muxStream is one link's connection: the frames it writes go straight
// onto the session; the frames the peer sends wait in its inbox until
// the link's frame reader takes them (next).
//
// The inbox is a queue of pooled chunk buffers holding whole frames as
// they came off the wire, header included. The read loop reads a body
// straight into the tail buffer, so a received byte is copied once,
// from the socket, before the link delivers it; consecutive frames
// share a buffer, a raw DATA frame is appended to an untaken one before
// it, and an ACK added to one. A buffer returns once read, so an idle
// stream holds none: to the session's spare, which a collection does not
// empty as it does the pool, or to the pool.
type muxStream struct {
	id   uint32
	s    *session
	wake chan struct{} // the read loop published a frame, or the stream ended

	mu      sync.Mutex
	q       []inboxBuf
	r       int  // offset of the next frame in q[0]
	lent    int  // length of the frame at r handed to the reader, 0 if none
	filling bool // the read loop is reading a body into the tail
	last    []byte
	// queued frames, of which data carry DATA: dataBytes of payload
	// against limit, the bound the writer's RESUME set.
	queued, data, dataBytes, limit int
	err                            error // why the stream ended, reported behind the queued frames
	closed                         bool  // this end is done with it
	fin                            bool  // so is the peer
}

type inboxBuf struct {
	b *[]byte
	n int // filled
}

// push reads the body of the frame headed by hdr off r into the inbox.
func (st *muxStream) push(r io.Reader, hdr []byte, n int) error {
	kind := hdr[0]
	if kind == kindFin || kind == kindRst {
		st.peerEnd(kind)
		return discard(r, n)
	}
	st.mu.Lock()
	if err := st.admit(kind, n); err != nil {
		if st.err == nil && !st.closed {
			st.err = err // an overrun: what the inbox holds goes at once
			st.drop()
		}
		st.mu.Unlock()
		return discard(r, n)
	}
	// A raw DATA frame behind an untaken one is read in right after it.
	// If the reader takes that one before the publish below, the body
	// moves over to make room for a header of its own.
	merge := kind == frameData && st.queued > 0 && st.last[0] == frameData
	if k := len(st.q); k == 0 || len(*st.q[k-1].b)-st.q[k-1].n < frameHdrLen+n {
		b := st.s.spare.Swap(nil)
		if b == nil {
			b = getChunkBuf()
		}
		st.q = append(st.q, inboxBuf{b: b})
	}
	t := &st.q[len(st.q)-1]
	at := t.n
	if merge = merge && at > 0 && &st.last[len(st.last)-1] == &(*t.b)[at-1]; !merge {
		copy((*t.b)[at:], hdr)
		at += frameHdrLen
	}
	body := (*t.b)[at : at+n]
	st.filling = true
	st.mu.Unlock()
	_, err := io.ReadFull(r, body)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.filling = false
	t = &st.q[len(st.q)-1]
	switch {
	case err != nil || st.closed || st.err != nil:
	case merge && st.queued > 0:
		putHeader(st.last, frameData, st.id, len(st.last)-frameHdrLen+n)
		st.last = (*t.b)[at-len(st.last) : at+n]
		t.n, st.dataBytes = at+n, st.dataBytes+n
	case kind == frameAck && n == 4 && st.queued > 0 && st.last[0] == frameAck && len(st.last) == frameHdrLen+4:
		foldAck(st.last, (*t.b)[at-frameHdrLen:at+n])
	default:
		if merge {
			copy((*t.b)[at+frameHdrLen:], (*t.b)[at:at+n])
			copy((*t.b)[at:], hdr)
			at += frameHdrLen
		}
		st.last, t.n = (*t.b)[at-frameHdrLen:at+n], at+n
		st.queued++
		if kind == frameData || kind == frameDataC {
			st.data++
			st.dataBytes += n
		} else if kind == frameResume {
			if f, err := decodeFrame(st.last); err == nil && f.window > 0 {
				st.limit = dataBound(f.window) // a writer's: a reader's announces none
			}
		}
		st.signal()
	}
	st.trim()
	return err
}

// admit applies the inbox bound (DESIGN.md, "Stream framing and
// credit"): DATA payload up to the limit the writer's window set, at
// most ctrlSlack control frames beyond one per DATA frame, each small.
// The caller holds st.mu.
func (st *muxStream) admit(kind byte, n int) error {
	switch {
	case st.closed || st.err != nil:
		return io.EOF // discarded: nobody reads it
	case kind == frameData || kind == frameDataC:
		if n == 0 || st.dataBytes+n > st.limit {
			return errOverrun
		}
	case n > ctrlMax || st.queued-st.data >= st.data+ctrlSlack:
		return errOverrun
	}
	return nil
}

// ctrlSlack is how many control frames an inbox holds beyond one per
// DATA frame: a RESUME, a final frame, a MOVING and the ACKs around it.
const ctrlSlack = 8

// next hands the link's frame reader the stream's next frame, waiting
// for one, and takes back the one handed out before: a DATA payload
// aliases the inbox until then.
func (st *muxStream) next() (frame, error) {
	st.mu.Lock()
	st.giveBack()
	for st.queued == 0 {
		err := st.err
		if st.closed {
			err = net.ErrClosed
		}
		if err != nil {
			st.mu.Unlock()
			return frame{}, err
		}
		st.mu.Unlock()
		<-st.wake
		st.mu.Lock()
	}
	_, _, n := parseHeader((*st.q[0].b)[st.r:])
	rec := (*st.q[0].b)[st.r : st.r+frameHdrLen+n]
	st.lent = len(rec)
	st.queued--
	if k := rec[0]; k == frameData || k == frameDataC {
		st.data--
		st.dataBytes -= n
	}
	st.mu.Unlock()
	return decodeFrame(rec)
}

// release takes back the frame handed out last, when its reader stops.
func (st *muxStream) release() {
	st.mu.Lock()
	st.giveBack()
	st.mu.Unlock()
}

func (st *muxStream) giveBack() {
	st.r += st.lent
	st.lent = 0
	st.trim()
}

// trim returns every buffer read to its end, or all once the stream is
// over, except the one lent out and the one being filled.
func (st *muxStream) trim() {
	for len(st.q) > 0 && st.lent == 0 && !(st.filling && len(st.q) == 1) {
		if st.r < st.q[0].n && st.queued > 0 {
			return
		}
		if !st.s.spare.CompareAndSwap(nil, st.q[0].b) {
			putChunkBuf(st.q[0].b)
		}
		st.q, st.r = st.q[:copy(st.q, st.q[1:])], 0
	}
}

// Write sends b, whole frames of this stream, in one write on the
// session.
func (st *muxStream) Write(b []byte) (int, error) {
	st.mu.Lock()
	err := st.err
	if st.closed {
		err = net.ErrClosed
	}
	st.mu.Unlock()
	if err == nil || err == io.EOF {
		err = st.s.write(b)
	}
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// Close ends this end of the stream: FIN tells the peer, after every
// frame written before it, and the stream leaves the table once the
// peer is done with it too.
func (st *muxStream) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	fin := st.err == nil || st.err == io.EOF || errors.Is(st.err, ErrBadFrame)
	gone := st.fin
	st.drop()
	st.mu.Unlock()
	if fin {
		st.s.ctrl(kindFin, st.id)
	}
	if gone {
		st.s.remove(st)
	}
	return nil
}

// peerEnd takes the peer's FIN (it is done with the stream) or RST (it
// never knew it): the reader gets what is queued, then io.EOF or
// ErrStreamReset.
func (st *muxStream) peerEnd(kind byte) {
	st.mu.Lock()
	st.fin = true
	gone := st.closed || kind == kindRst
	if st.err == nil {
		st.err = io.EOF
		if kind == kindRst {
			st.err = ErrStreamReset
		}
		st.signal()
	}
	st.mu.Unlock()
	if gone {
		st.s.remove(st)
	}
}

// end fails the stream with its session's cause, behind what it holds.
func (st *muxStream) end(err error) {
	st.mu.Lock()
	if st.err == nil || st.err == io.EOF {
		st.err = err
	}
	st.signal()
	st.mu.Unlock()
}

func (st *muxStream) drop() {
	st.queued, st.data, st.dataBytes = 0, 0, 0
	st.trim()
	st.signal()
}

func (st *muxStream) signal() {
	select {
	case st.wake <- struct{}{}:
	default:
	}
}
