// Package mux multiplexes many virtual streams over one long-lived,
// authenticated connection per peer pair.
//
// One TCP connection per channel rendezvous (the paper's §4.2) is
// file-descriptor and handshake blowup at production scale (thousands
// of channels between two hosts). A mux Session runs the X25519
// challenge/response handshake once (handshake.go) and then carries
// any number of conduits as virtual streams, each an ordered, credited
// byte stream with its own half-close: the netio link protocol — HELLO, DATA/DATA-C, ACK, RESUME, TRACE, BYE,
// REDIRECT — runs over a stream, so resume, compression, durable
// journaling, and migration never see the session boundary. The
// session is also the wire's one liveness probe: its keepalive and
// write bound decide when the peer is gone, and every stream fails
// with it.
//
// Framing on the session is deliberately minimal:
//
//	[kind u8][stream u32][len u32][payload...]
//
// with frames bounded at 64 KiB of payload, so no stream can occupy
// the wire for long and interleaving stays fair (the session write
// lock is a Go mutex, whose starvation mode guarantees FIFO handoff
// under contention). Each stream has its own credit window: a sender
// may have at most the peer's announced window of bytes in flight, and
// the receiver grants credit back (WIN frames) as the consumer reads.
// Credit is reserved *before* the session write lock is taken, so a
// stalled stream never blocks the shared wire, and the session read
// loop never writes, so the two directions cannot deadlock.
package mux

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// muxHdrLen is the fixed frame header: kind, stream id, payload len.
	muxHdrLen = 9

	// FrameMax bounds a single frame's payload. It is the fairness
	// quantum: a stream with a large backlog yields the wire to its
	// neighbors at least every FrameMax bytes.
	FrameMax = 64 << 10

	// DefaultWindow is the per-stream receive window. It matches the
	// link layer's flow-control window so tunneling the link protocol
	// through a stream adds no new stall points.
	DefaultWindow = 256 << 10

	// DefaultMaxStreams bounds concurrent streams per session.
	DefaultMaxStreams = 4096

	defaultKeepAlive = 15 * time.Second
	defaultTimeout   = 3 * defaultKeepAlive
	acceptBacklog    = 128
)

// Frame kinds.
const (
	kindSYN  = 1 // open stream
	kindDAT  = 2 // stream data
	kindWIN  = 3 // credit grant (4-byte payload)
	kindFIN  = 4 // half-close: no more data from sender
	kindRST  = 5 // abort stream
	kindGO   = 6 // session closing
	kindPING = 7 // keepalive
)

var (
	// ErrSessionClosed is returned by session and stream operations
	// after the session was closed deliberately (Close or a peer GO
	// frame). Aliased in internal/conduit/errs.go.
	ErrSessionClosed = errors.New("mux: session closed")

	// ErrStreamLimit is returned by OpenStream when the session already
	// carries its configured maximum of concurrent streams. Aliased in
	// internal/conduit/errs.go.
	ErrStreamLimit = errors.New("mux: stream limit reached")

	// ErrStreamReset is returned by stream operations after the peer
	// aborted the stream with a RST frame.
	ErrStreamReset = errors.New("mux: stream reset by peer")

	// errKeepAlive wraps the deadline sentinel so a session that died of
	// silence and one that died of a stalled write classify alike.
	errKeepAlive = fmt.Errorf("mux: session keepalive: %w", os.ErrDeadlineExceeded)
)

// Hooks are optional instrumentation callbacks; the broker points them
// at its metrics bundle. Nil fields are skipped.
type Hooks struct {
	StreamOpened func()
	StreamClosed func()
	CreditStall  func() // a stream write blocked on an empty credit window
}

// call runs hook, if set.
func call(hook func()) {
	if hook != nil {
		hook()
	}
}

// Config parameterizes a session. The zero value is usable: empty PSK
// (unauthenticated), DefaultWindow, DefaultMaxStreams.
type Config struct {
	// PSK is the cluster pre-shared key both peers must hold for the
	// handshake proofs to verify. Empty means any peer speaking the
	// protocol is accepted.
	PSK []byte

	// Addr is this side's broker listen address, announced during the
	// handshake so the peer can pool the session under a dialable key.
	Addr string

	// Window is the per-stream receive window in bytes (default
	// DefaultWindow).
	Window int

	// MaxStreams bounds concurrent streams per session (default
	// DefaultMaxStreams).
	MaxStreams int

	// Timeout is how long the peer may stay silent, or a single frame
	// write may stall on the shared conn, before the session is declared
	// dead (default 45s).
	Timeout time.Duration

	// KeepAlive is the PING interval that keeps an idle session from
	// looking silent; keep it well under Timeout. Negative disables
	// PINGs and the silence check (default 15s).
	KeepAlive time.Duration

	Hooks Hooks
}

func (c Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return DefaultWindow
}

func (c Config) maxStreams() int {
	if c.MaxStreams > 0 {
		return c.MaxStreams
	}
	return DefaultMaxStreams
}

func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return defaultTimeout
}

// Session is one authenticated connection carrying many streams. Both
// sides may open streams: the dialer allocates odd stream IDs, the
// acceptor even ones.
type Session struct {
	conn    net.Conn
	cfg     Config
	dialer  bool
	peer    handshakeResult
	lastRcv atomic.Int64 // UnixNano of the last frame received

	wmu  sync.Mutex
	wbuf []byte // staging buffer: header+payload in one conn.Write
	werr error

	// openMu makes stream-id allocation and the SYN write one step: the
	// peer rejects an id at or below the last it saw, so SYNs must reach
	// the wire in id order.
	openMu sync.Mutex

	mu       sync.Mutex
	streams  map[uint32]*Stream
	nextID   uint32 // next locally originated stream id
	lastPeer uint32 // highest peer-originated stream id seen
	closed   bool
	err      error

	acceptCh chan *Stream
	done     chan struct{}
}

// Dial runs the dialer half of the handshake on conn and returns the
// live session. On handshake failure the conn is closed.
func Dial(conn net.Conn, cfg Config) (*Session, error) {
	res, err := dialHandshake(conn, cfg.PSK, cfg.Addr, uint32(cfg.window()))
	if err != nil {
		conn.Close()
		return nil, err
	}
	return newSession(conn, cfg, res, true), nil
}

// Accept runs the serving half of the handshake on conn and returns the
// live session. On handshake failure — a first byte other than Magic
// included — the conn is closed.
func Accept(conn net.Conn, cfg Config) (*Session, error) {
	res, err := acceptHandshake(conn, cfg.PSK, cfg.Addr, uint32(cfg.window()))
	if err != nil {
		conn.Close()
		return nil, err
	}
	return newSession(conn, cfg, res, false), nil
}

func newSession(conn net.Conn, cfg Config, peer handshakeResult, dialer bool) *Session {
	s := &Session{
		conn:     conn,
		cfg:      cfg,
		dialer:   dialer,
		peer:     peer,
		streams:  make(map[uint32]*Stream),
		acceptCh: make(chan *Stream, acceptBacklog),
		done:     make(chan struct{}),
	}
	if dialer {
		s.nextID = 1
	} else {
		s.nextID = 2
	}
	// The caller typically bounded the handshake with a conn deadline;
	// the session manages its own from here (per-frame write deadlines,
	// keepalive-driven death detection instead of read deadlines).
	conn.SetDeadline(time.Time{})
	s.lastRcv.Store(time.Now().UnixNano())
	go s.readLoop()
	if ka := cfg.KeepAlive; ka >= 0 {
		if ka == 0 {
			ka = defaultKeepAlive
		}
		go s.keepalive(ka)
	}
	return s
}

// PeerAddr is the broker listen address the peer announced during the
// handshake: its dialable identity, under which the session pool keys
// this session for symmetric reuse.
func (s *Session) PeerAddr() string { return s.peer.peerAddr }

// Done is closed when the session dies, however it dies.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err reports why the session died (nil while alive).
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// NumStreams reports the live stream count.
func (s *Session) NumStreams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// OpenStream opens a new virtual stream toward the peer.
func (s *Session) OpenStream() (*Stream, error) {
	s.openMu.Lock()
	defer s.openMu.Unlock()
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return nil, err
	}
	if len(s.streams) >= s.cfg.maxStreams() {
		s.mu.Unlock()
		return nil, ErrStreamLimit
	}
	id := s.nextID
	s.nextID += 2
	st := newStream(s, id)
	s.streams[id] = st
	s.mu.Unlock()
	if err := s.writeFrame(kindSYN, id, nil); err != nil {
		s.removeStream(st)
		return nil, err
	}
	call(s.cfg.Hooks.StreamOpened)
	return st, nil
}

// AcceptStream returns the next stream the peer opened.
func (s *Session) AcceptStream() (*Stream, error) {
	select {
	case st := <-s.acceptCh:
		return st, nil
	default:
	}
	select {
	case st := <-s.acceptCh:
		return st, nil
	case <-s.done:
		return nil, s.Err()
	}
}

// Close tears the session down deliberately: a best-effort GO frame
// tells the peer, every stream fails with ErrSessionClosed, and the
// connection closes.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	// Settle the cause first: the peer answers GO by hanging up, and the
	// read loop's EOF must not beat the fail below to it.
	s.err = ErrSessionClosed
	s.mu.Unlock()
	s.writeFrame(kindGO, 0, nil) // best effort; fail handles a dead conn
	s.fail(ErrSessionClosed)
	return nil
}

// fail kills the session with err: closes the conn, aborts every
// stream, and releases Done. Idempotent; the first cause wins, and a
// deliberate Close is always first.
func (s *Session) fail(err error) {
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
	streams := make([]*Stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.streams = make(map[uint32]*Stream)
	s.mu.Unlock()
	s.conn.Close()
	for _, st := range streams {
		st.abort(err)
		call(s.cfg.Hooks.StreamClosed)
	}
	close(s.done)
}

func (s *Session) removeStream(st *Stream) {
	s.mu.Lock()
	_, live := s.streams[st.id]
	delete(s.streams, st.id)
	s.mu.Unlock()
	if live {
		call(s.cfg.Hooks.StreamClosed)
	}
}

// writeFrame stages header+payload into one buffer and issues a single
// conn.Write, so every frame costs one syscall. The staging buffer is
// reused across frames; the write lock serializes frames and — via the
// mutex's starvation mode — hands the wire to waiting streams in FIFO
// order.
func (s *Session) writeFrame(kind byte, id uint32, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.werr != nil {
		return s.werr
	}
	need := muxHdrLen + len(payload)
	if cap(s.wbuf) < need {
		s.wbuf = make([]byte, need)
	}
	b := s.wbuf[:need]
	b[0] = kind
	binary.BigEndian.PutUint32(b[1:5], id)
	binary.BigEndian.PutUint32(b[5:9], uint32(len(payload)))
	copy(b[muxHdrLen:], payload)
	s.conn.SetWriteDeadline(time.Now().Add(s.cfg.timeout()))
	if _, err := s.conn.Write(b); err != nil {
		// Report the session's cause, not this write's symptom: the conn
		// may have been closed under us by a fail already in progress.
		s.fail(err)
		s.werr = s.Err()
		return s.werr
	}
	return nil
}

func (s *Session) keepalive(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			idle := time.Duration(time.Now().UnixNano() - s.lastRcv.Load())
			if idle > s.cfg.timeout() {
				s.fail(errKeepAlive)
				return
			}
			s.writeFrame(kindPING, 0, nil)
		}
	}
}

// readLoop is the only reader of the conn. It never writes: credit
// grants go out from consumer goroutines, RSTs from spawned
// goroutines, so a peer blocked mid-write can never deadlock us.
func (s *Session) readLoop() {
	var hdr [muxHdrLen]byte
	for {
		if _, err := io.ReadFull(s.conn, hdr[:]); err != nil {
			s.fail(err)
			return
		}
		s.lastRcv.Store(time.Now().UnixNano())
		kind := hdr[0]
		id := binary.BigEndian.Uint32(hdr[1:5])
		n := int(binary.BigEndian.Uint32(hdr[5:9]))
		if n > FrameMax {
			s.fail(fmt.Errorf("mux: frame payload %d exceeds maximum %d", n, FrameMax))
			return
		}
		var err error
		switch kind {
		case kindSYN:
			err = s.handleSYN(id, n)
		case kindDAT:
			err = s.handleDAT(id, n)
		case kindWIN:
			err = s.handleWIN(id, n)
		case kindFIN:
			s.handleFIN(id)
		case kindRST:
			s.handleRST(id)
		case kindGO:
			s.fail(ErrSessionClosed)
			return
		case kindPING:
			// Receipt already refreshed lastRcv; nothing else to do.
		default:
			err = fmt.Errorf("mux: unknown frame kind %d", kind)
		}
		if err != nil {
			s.fail(err)
			return
		}
	}
}

func (s *Session) handleSYN(id uint32, n int) error {
	if n > 0 {
		if _, err := io.CopyN(io.Discard, s.conn, int64(n)); err != nil {
			return err
		}
	}
	peerParity := uint32(1)
	if s.dialer {
		peerParity = 0 // the acceptor originates even ids
	}
	s.mu.Lock()
	if id%2 != peerParity || id <= s.lastPeer {
		s.mu.Unlock()
		return fmt.Errorf("mux: peer opened invalid stream id %d", id)
	}
	s.lastPeer = id
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if len(s.streams) >= s.cfg.maxStreams() {
		s.mu.Unlock()
		go s.writeFrame(kindRST, id, nil)
		return nil
	}
	st := newStream(s, id)
	s.streams[id] = st
	s.mu.Unlock()
	call(s.cfg.Hooks.StreamOpened)
	select {
	case s.acceptCh <- st:
	case <-s.done:
	}
	return nil
}

func (s *Session) handleDAT(id uint32, n int) error {
	s.mu.Lock()
	st := s.streams[id]
	s.mu.Unlock()
	if st == nil {
		// Unknown or already torn down: drain the payload and tell the
		// peer to stop. RST only ever answers DAT, so no RST loops.
		if _, err := io.CopyN(io.Discard, s.conn, int64(n)); err != nil {
			return err
		}
		go s.writeFrame(kindRST, id, nil)
		return nil
	}
	return st.fill(s.conn, n)
}

func (s *Session) handleWIN(id uint32, n int) error {
	if n != 4 {
		return fmt.Errorf("mux: WIN frame with %d-byte payload", n)
	}
	var b [4]byte
	if _, err := io.ReadFull(s.conn, b[:]); err != nil {
		return err
	}
	grant := binary.BigEndian.Uint32(b[:])
	s.mu.Lock()
	st := s.streams[id]
	s.mu.Unlock()
	if st != nil {
		st.grant(int(grant))
	}
	return nil
}

func (s *Session) handleFIN(id uint32) {
	s.mu.Lock()
	st := s.streams[id]
	s.mu.Unlock()
	if st == nil {
		return
	}
	if st.remoteClose() {
		s.removeStream(st)
	}
}

func (s *Session) handleRST(id uint32) {
	s.mu.Lock()
	st := s.streams[id]
	s.mu.Unlock()
	if st == nil {
		return
	}
	st.abort(ErrStreamReset)
	s.removeStream(st)
}

// Stream is one virtual stream multiplexed over the session: an
// io.ReadWriteCloser plus CloseWrite. It has no deadlines — the
// session's keepalive and write bound are the wire's liveness probe,
// and Close (or the session's death) wakes a Read or Write waiting on
// it.
//
// Received data lands in a fixed ring the size of the receive window —
// credit accounting guarantees the peer never sends more than fits, so
// the session read loop can copy payloads straight off the wire into
// the ring without allocating or blocking on the consumer.
type Stream struct {
	id   uint32
	sess *Session

	wrMu sync.Mutex // serializes Write calls (frame ordering)

	mu       sync.Mutex
	readCond *sync.Cond
	sendCond *sync.Cond

	buf        []byte // receive ring, len == our window
	head, size int    // read index and bytes buffered
	consumed   int    // bytes read but not yet granted back

	sendCredit int // bytes we may still send (peer grants)

	remoteDone bool // peer sent FIN
	rclosed    bool // local read side closed
	wclosed    bool // local write side closed (FIN sent or queued)
	finSent    bool
	rstSent    bool
	resetErr   error // stream aborted (RST or session death)
}

func newStream(s *Session, id uint32) *Stream {
	st := &Stream{
		id:         id,
		sess:       s,
		buf:        make([]byte, s.cfg.window()),
		sendCredit: int(s.peer.peerWindow),
	}
	st.readCond = sync.NewCond(&st.mu)
	st.sendCond = sync.NewCond(&st.mu)
	return st
}

// ID is the stream's id on the wire (odd = dialer-originated).
func (st *Stream) ID() uint32 { return st.id }

// fill copies one DAT payload from the session conn into the receive
// ring. Called only by the session read loop. The ring region being
// filled is disjoint from anything Read is consuming (head+size is
// invariant under consumption), so the wire copy runs unlocked.
func (st *Stream) fill(r io.Reader, n int) error {
	st.mu.Lock()
	if st.rclosed || st.resetErr != nil {
		// Locally closed: drain and abort the peer's sender. A stream
		// closed in both directions here has nothing left to wait for —
		// the peer does not FIN a stream it was told to reset — so it
		// leaves the session table now rather than never.
		sendRST := !st.rstSent
		st.rstSent = true
		gone := st.rclosed && st.wclosed
		st.mu.Unlock()
		if _, err := io.CopyN(io.Discard, r, int64(n)); err != nil {
			return err
		}
		if sendRST {
			go st.sess.writeFrame(kindRST, st.id, nil)
		}
		if gone {
			st.sess.removeStream(st)
		}
		return nil
	}
	if st.remoteDone {
		// Data after FIN: tolerate a half-close racing an in-flight
		// write; the bytes are undeliverable either way.
		st.mu.Unlock()
		_, err := io.CopyN(io.Discard, r, int64(n))
		return err
	}
	if n > len(st.buf)-st.size {
		st.mu.Unlock()
		return fmt.Errorf("mux: peer overran stream %d window (%d > %d free)",
			st.id, n, len(st.buf)-st.size)
	}
	tail := (st.head + st.size) % len(st.buf)
	st.mu.Unlock()

	first := len(st.buf) - tail
	if first > n {
		first = n
	}
	if _, err := io.ReadFull(r, st.buf[tail:tail+first]); err != nil {
		return err
	}
	if first < n {
		if _, err := io.ReadFull(r, st.buf[:n-first]); err != nil {
			return err
		}
	}

	st.mu.Lock()
	st.size += n
	st.readCond.Broadcast()
	st.mu.Unlock()
	return nil
}

// grant adds peer credit. Called by the session read loop on WIN.
func (st *Stream) grant(n int) {
	st.mu.Lock()
	st.sendCredit += n
	st.sendCond.Broadcast()
	st.mu.Unlock()
}

// remoteClose marks the peer's FIN and reports whether the stream is
// now fully closed (both directions) and should be removed.
func (st *Stream) remoteClose() bool {
	st.mu.Lock()
	st.remoteDone = true
	st.readCond.Broadcast()
	done := st.wclosed && st.rclosed
	st.mu.Unlock()
	return done
}

// abort fails every pending and future operation on the stream.
func (st *Stream) abort(err error) {
	st.mu.Lock()
	if st.resetErr == nil {
		st.resetErr = err
	}
	st.readCond.Broadcast()
	st.sendCond.Broadcast()
	st.mu.Unlock()
}

func (st *Stream) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	st.mu.Lock()
	for st.size == 0 {
		if st.resetErr != nil {
			err := st.resetErr
			st.mu.Unlock()
			return 0, err
		}
		if st.remoteDone {
			st.mu.Unlock()
			return 0, io.EOF
		}
		if st.rclosed {
			st.mu.Unlock()
			return 0, net.ErrClosed
		}
		st.readCond.Wait()
	}
	n := st.size
	if n > len(p) {
		n = len(p)
	}
	first := len(st.buf) - st.head
	if first > n {
		first = n
	}
	copy(p, st.buf[st.head:st.head+first])
	copy(p[first:], st.buf[:n-first])
	st.head = (st.head + n) % len(st.buf)
	st.size -= n
	st.consumed += n
	var grant int
	// Grant consumed credit back once half the window has been freed:
	// batched grants keep WIN traffic to a few frames per window while
	// never letting a steadily-consuming stream run the sender dry.
	if st.consumed >= len(st.buf)/2 && st.resetErr == nil && !st.rclosed {
		grant = st.consumed
		st.consumed = 0
	}
	st.mu.Unlock()
	if grant > 0 {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(grant))
		st.sess.writeFrame(kindWIN, st.id, b[:]) // session death surfaces on the next Read
	}
	return n, nil
}

func (st *Stream) Write(p []byte) (int, error) {
	st.wrMu.Lock()
	defer st.wrMu.Unlock()
	total := 0
	for len(p) > 0 {
		st.mu.Lock()
		stalled := false
		for {
			if st.resetErr != nil {
				err := st.resetErr
				st.mu.Unlock()
				return total, err
			}
			if st.wclosed {
				st.mu.Unlock()
				return total, net.ErrClosed
			}
			if st.sendCredit > 0 {
				break
			}
			if !stalled {
				stalled = true
				call(st.sess.cfg.Hooks.CreditStall)
			}
			st.sendCond.Wait()
		}
		n := len(p)
		if n > st.sendCredit {
			n = st.sendCredit
		}
		if n > FrameMax {
			n = FrameMax
		}
		st.sendCredit -= n
		st.mu.Unlock()
		if err := st.sess.writeFrame(kindDAT, st.id, p[:n]); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// CloseWrite half-closes the stream: a FIN tells the peer no more data
// is coming, while reads continue.
func (st *Stream) CloseWrite() error {
	st.mu.Lock()
	if st.wclosed || st.resetErr != nil {
		st.mu.Unlock()
		return nil
	}
	st.wclosed = true
	st.finSent = true
	st.sendCond.Broadcast()
	st.mu.Unlock()
	return st.sess.writeFrame(kindFIN, st.id, nil)
}

// Close closes both directions. The peer sees FIN after everything
// written before it — a close never discards data the peer has yet to
// read, which is what lets a link close right after its final frame —
// and once it FINs back (or already has) the stream leaves the session
// table.
func (st *Stream) Close() error {
	st.mu.Lock()
	if st.rclosed && st.wclosed {
		st.mu.Unlock()
		return nil
	}
	sendFIN := !st.finSent && st.resetErr == nil
	st.finSent = true
	st.rclosed = true
	st.wclosed = true
	remoteDone := st.remoteDone
	reset := st.resetErr != nil
	st.readCond.Broadcast()
	st.sendCond.Broadcast()
	st.mu.Unlock()
	if sendFIN {
		st.sess.writeFrame(kindFIN, st.id, nil) // best effort
	}
	if remoteDone || reset {
		st.sess.removeStream(st)
	}
	return nil
}
