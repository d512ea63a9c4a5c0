package netio

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"dpn/internal/stream"
)

// sessionPair returns the session a dials to b and the one b adopted
// for it.
func sessionPair(t *testing.T, a, b *Broker) (*session, *session) {
	t.Helper()
	d, err := a.muxSession(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var acc *session
	waitUntil(t, "the peer adopts the session", func() bool {
		b.muxMu.Lock()
		defer b.muxMu.Unlock()
		if e := b.muxSess[a.Addr()]; e != nil && e.sess != nil {
			acc = e.sess
		}
		return acc != nil
	})
	return d, acc
}

func streamsOf(s *session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// openPair opens a stream from a's session and takes it at b.
func openPair(t *testing.T, a, b *Broker, d *session) (*muxStream, *muxStream) {
	t.Helper()
	tok := b.NewToken()
	st, err := d.open(tok, a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := b.expectWithin(tok, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return st, peer
}

func TestHandshakeAndFrameExchange(t *testing.T) {
	a, b := newMuxBroker(t, []byte("cluster-secret")), newMuxBroker(t, []byte("cluster-secret"))
	d, acc := sessionPair(t, a, b)
	if d.peer != b.Addr() || acc.peer != a.Addr() {
		t.Fatalf("peers announced %q and %q, want %q and %q", d.peer, acc.peer, b.Addr(), a.Addr())
	}
	st, peer := openPair(t, a, b, d)
	if st.id%2 != 1 || peer.id != st.id {
		t.Fatalf("dialer opened stream %d, the peer took %d", st.id, peer.id)
	}
	msg := []byte("hello across the session")
	for _, f := range []frame{{kind: frameResume, window: 1 << 10}, {kind: frameData, payload: msg}, {kind: frameEOF}} {
		if err := sendFrame(st, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []byte{frameResume, frameData, frameEOF} {
		f, err := recvFrame(peer)
		if err != nil || f.kind != want {
			t.Fatalf("peer read %q (%v), want %q", f.kind, err, want)
		}
		if want == frameData && !bytes.Equal(f.payload, msg) {
			t.Fatalf("peer read %q, want %q", f.payload, msg)
		}
	}
	// And back: ACKs fold into one while nobody takes them.
	for _, f := range []frame{{kind: frameAck, ack: 3}, {kind: frameAck, ack: 4}, {kind: frameBye}} {
		if err := sendFrame(peer, f); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the reply arrives", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.queued == 2
	})
	if f, err := recvFrame(st); err != nil || f.kind != frameAck || f.ack != 7 {
		t.Fatalf("read %+v (%v), want ACK(7)", f, err)
	}
	if f, err := recvFrame(st); err != nil || f.kind != frameBye {
		t.Fatalf("read %+v (%v), want BYE", f, err)
	}
	st.Close()
	if _, err := recvFrame(peer); err != io.EOF {
		t.Fatalf("after the peer's FIN: %v, want io.EOF", err)
	}
	peer.Close()
	waitUntil(t, "both tables empty", func() bool { return streamsOf(d) == 0 && streamsOf(acc) == 0 })
}

func TestAuthFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		_, err = acceptHandshake(conn, []byte("right"), "acceptor:1")
		srvErr <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := dialHandshake(conn, []byte("wrong"), "dialer:1"); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("handshake with the wrong PSK: %v, want ErrAuthFailed", err)
	}
	// The server side fails too — with ErrAuthFailed if the dialer's
	// bogus proof arrived, or a conn error if the dialer hung up first.
	conn.Close()
	if err := <-srvErr; err == nil {
		t.Fatal("accept with mismatched PSK succeeded")
	}
}

func TestStreamLimit(t *testing.T) {
	a, b := newTestBroker(t), newTestBroker(t)
	d, _ := sessionPair(t, a, b)
	for i := 0; i < maxStreams; i++ {
		if _, err := d.open(fmt.Sprint("tok", i), a.Addr()); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
	if _, err := d.open("one-more", a.Addr()); !errors.Is(err, ErrStreamLimit) {
		t.Fatalf("stream %d: %v, want ErrStreamLimit", maxStreams+1, err)
	}
}

func TestSessionClose(t *testing.T) {
	a, b := newTestBroker(t), newTestBroker(t)
	d, acc := sessionPair(t, a, b)
	st, _ := openPair(t, a, b, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.open("tok", a.Addr()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("open after Close: %v, want ErrSessionClosed", err)
	}
	if _, err := st.Write([]byte("x")); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("stream write after Close: %v, want ErrSessionClosed", err)
	}
	if _, err := st.next(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("stream read after Close: %v, want ErrSessionClosed", err)
	}
	// The peer learns via the GO frame and fails the same way.
	select {
	case <-acc.done:
	case <-time.After(5 * time.Second):
		t.Fatal("peer session did not observe GO within 5s")
	}
	if err := acc.Err(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("peer session error %v, want ErrSessionClosed", err)
	}
}

// Sixteen links share one session, each moving two windows' worth, so
// every link cycles its credit while the others send.
func TestConcurrentStreamsFairAndRaceFree(t *testing.T) {
	a, b := newTestBroker(t), newTestBroker(t)
	sessionPair(t, b, a)
	const links, perLink = 16, 512 << 10
	errs := make(chan error, links)
	for i := 0; i < links; i++ {
		src, dst := stream.NewPipe(1<<16), stream.NewPipe(1<<16)
		tok := a.NewToken()
		if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{byte(i)}, perLink)
		go func() {
			for k := 0; k < perLink; k += 8192 {
				src.Write(payload[k : k+8192])
			}
			src.CloseWrite()
		}()
		go func() {
			got, err := io.ReadAll(dst.ReadEnd())
			if err == nil && !bytes.Equal(got, payload) {
				err = fmt.Errorf("link %d: %d bytes arrived corrupted", i, len(got))
			}
			errs <- err
		}()
	}
	for i := 0; i < links; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("concurrent links wedged — fairness or credit bug")
		}
	}
	if a.MuxSessions() != 1 || b.MuxSessions() != 1 {
		t.Fatalf("%d links used a=%d b=%d sessions, want one", links, a.MuxSessions(), b.MuxSessions())
	}
}

func TestStreamCountAndTeardown(t *testing.T) {
	a, b := newTestBroker(t), newTestBroker(t)
	d, acc := sessionPair(t, a, b)
	var sts []*muxStream
	for i := 0; i < 8; i++ {
		st, peer := openPair(t, a, b, d)
		sts = append(sts, st)
		go func() {
			for _, err := peer.next(); err == nil; _, err = peer.next() {
			}
			peer.Close()
		}()
	}
	if n := streamsOf(d); n != 8 {
		t.Fatalf("dialer holds %d streams, want 8", n)
	}
	for _, st := range sts {
		st.Close()
	}
	waitUntil(t, "both tables empty", func() bool { return streamsOf(d) == 0 && streamsOf(acc) == 0 })
	if n := a.MuxStreams() + b.MuxStreams(); n != 0 {
		t.Fatalf("%d streams counted live after teardown", n)
	}
}

// TestCloseUnderASendingPeerLeavesNoStream closes a stream whose peer
// is still writing: the late frames are dropped on arrival, the peer
// learns from the FIN, and once it closes too neither side keeps the
// stream (or a buffer of its inbox). A link whose consumer closes
// mid-stream (§3.4) does exactly this.
func TestCloseUnderASendingPeerLeavesNoStream(t *testing.T) {
	a, b := newTestBroker(t), newTestBroker(t)
	d, acc := sessionPair(t, a, b)
	st, peer := openPair(t, a, b, d)
	send := func(f frame) {
		if err := sendFrame(st, f); err != nil {
			t.Fatal(err)
		}
	}
	send(frame{kind: frameResume, window: 1 << 20})
	send(frame{kind: frameData, payload: []byte("first")})
	for f, err := recvFrame(peer); f.kind != frameData; f, err = recvFrame(peer) {
		if err != nil {
			t.Fatal(err)
		}
	}
	peer.Close()
	ended := make(chan error, 1)
	go func() {
		_, err := st.next()
		ended <- err
	}()
	for sent := false; !sent; {
		select {
		case err := <-ended:
			if err != io.EOF {
				t.Fatalf("writer's stream ended with %v, want io.EOF", err)
			}
			sent = true
		case <-time.After(time.Millisecond):
			send(frame{kind: frameData, payload: []byte("late")})
		}
	}
	st.Close()
	waitUntil(t, "both tables empty", func() bool { return streamsOf(d) == 0 && streamsOf(acc) == 0 })
	if _, err := peer.next(); !errors.Is(err, net.ErrClosed) { // the reader hands back its last frame
		t.Fatalf("a read of the closed stream: %v, want net.ErrClosed", err)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if len(peer.q) != 0 {
		t.Fatalf("the closed stream still holds %d inbox buffers", len(peer.q))
	}
}

func TestKeepAliveDetectsSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The "peer" completes the handshake but never runs a session, so
	// it answers nothing — a black hole with an open socket.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		acceptHandshake(conn, nil, "blackhole:1")
		io.Copy(io.Discard, conn) // drain, so our PINGs meet no pushback
		conn.Close()
	}()
	b := newTestBroker(t)
	b.SetResilience(Resilience{HeartbeatEvery: 25 * time.Millisecond, MissDeadline: 75 * time.Millisecond})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := dialHandshake(conn, nil, b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sess := b.newSession(conn, peer, true)
	sess.start()
	defer sess.Close()
	select {
	case <-sess.done:
		if err := sess.Err(); !errors.Is(err, errKeepAlive) {
			t.Fatalf("session died with %v, want keepalive timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("keepalive never declared the silent peer dead")
	}
}

// inboxPeak samples st's queued DATA until stop closes and reports the
// most it saw.
func inboxPeak(st *muxStream, stop chan struct{}) <-chan int {
	peak := make(chan int, 1)
	go func() {
		most := 0
		for {
			st.mu.Lock()
			most = max(most, st.dataBytes)
			st.mu.Unlock()
			select {
			case <-stop:
				peak <- most
				return
			default:
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()
	return peak
}

// streamOf returns stream id of b's session toward peer, once b holds
// it.
func streamOf(t *testing.T, b *Broker, peer string, id uint32) *muxStream {
	t.Helper()
	var st *muxStream
	waitUntil(t, "the stream arrives", func() bool {
		b.muxMu.Lock()
		defer b.muxMu.Unlock()
		if e := b.muxSess[peer]; e != nil && e.sess != nil {
			e.sess.mu.Lock()
			st = e.sess.streams[id]
			e.sess.mu.Unlock()
		}
		return st != nil
	})
	return st
}

// A writer that ignores its credit is cut off: the reader end's inbox
// takes DATA up to the window the writer announced plus one frame, and
// the link fails with ErrBadFrame. Without the bound, the parked link's
// inbox would grow for as long as the peer kept sending.
func TestOverrunningPeerIsCutOff(t *testing.T) {
	a, b := newTestBroker(t), newTestBroker(t)
	dst := stream.NewPipe(64) // unread: the link parks delivering into it
	tok := a.NewToken()
	h, err := a.ServeInbound(tok, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := b.dial(a.Addr(), tok)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if f, err := recvFrame(conn); err != nil || f.kind != frameResume {
		t.Fatalf("opening frame %+v, %v; want RESUME", f, err)
	}
	const window = 4096
	if err := sendFrame(conn, frame{kind: frameResume, window: window}); err != nil {
		t.Fatal(err)
	}
	in := streamOf(t, a, b.Addr(), conn.id)
	stop := make(chan struct{})
	peak := inboxPeak(in, stop)
	chunk := payloadPattern(1 << 10)
	for sent := 0; sent < 2*dataBound(window); sent += len(chunk) {
		if err := sendFrame(conn, frame{kind: frameData, payload: chunk}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the inbox refuses the overrun", func() bool {
		in.mu.Lock()
		defer in.mu.Unlock()
		return errors.Is(in.err, ErrBadFrame)
	})
	close(stop)
	if p := <-peak; p > dataBound(window) {
		t.Fatalf("the inbox held %d DATA bytes, bound %d", p, dataBound(window))
	}
	go io.Copy(io.Discard, dst.ReadEnd()) // unpark the link: it takes the failure next
	if err := h.Wait(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("link finished with %v, want ErrBadFrame", err)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.q) != 0 {
		t.Fatalf("the failed inbox still holds %d buffers", len(in.q))
	}
}

// A stalled link does not stall its session: of two links on one
// session, one reader never reads, and the other still moves 64 MiB,
// hash-checked, in a fixed time. The stalled link's sender stops on its
// credit, and its inbox stays within the bound. This is what the read
// loop's never blocking on a link is for: a read loop that delivered
// inline would park in the stalled link's full pipe, and the other link
// would starve.
func TestStalledLinkDoesNotStallItsSession(t *testing.T) {
	a, b := newTestBroker(t), newTestBroker(t)
	link := func(capacity int) (*Handle, *stream.Pipe, *stream.Pipe) {
		src, dst := stream.NewPipe(1<<16), stream.NewPipe(capacity)
		tok := a.NewToken()
		h, err := a.ServeOutbound(tok, src.ReadEnd(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
			t.Fatal(err)
		}
		return h, src, dst
	}
	stalled, src1, dst1 := link(1 << 10)
	defer dst1.CloseRead()
	go func() {
		chunk := make([]byte, 1<<12)
		for {
			if _, err := src1.Write(chunk); err != nil {
				return
			}
		}
	}()
	waitUntil(t, "the stalled link's sender runs out of credit", func() bool {
		stalled.mu.Lock()
		defer stalled.mu.Unlock()
		return stalled.core.stalled
	})
	in := streamOf(t, b, a.Addr(), 1)
	stop := make(chan struct{})
	peak := inboxPeak(in, stop)

	_, src2, dst2 := link(1 << 16)
	const total = 64 << 20
	sent, got := sha256.New(), sha256.New()
	go func() {
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, 1<<16)
		for n := 0; n < total; n += len(buf) {
			rng.Read(buf)
			sent.Write(buf)
			if _, err := src2.Write(buf); err != nil {
				return
			}
		}
		src2.CloseWrite()
	}()
	done := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(got, dst2.ReadEnd())
		done <- n
	}()
	select {
	case n := <-done:
		if n != total || !bytes.Equal(got.Sum(nil), sent.Sum(nil)) {
			t.Fatalf("moved %d of %d bytes, hashes equal %v", n, total, bytes.Equal(got.Sum(nil), sent.Sum(nil)))
		}
	case <-time.After(60 * time.Second):
		t.Fatal("a stalled link stalled its session: 64 MiB did not cross in 60 s")
	}
	close(stop)
	if p, bound := <-peak, dataBound(DefaultWindow); p > bound {
		t.Fatalf("the stalled link's inbox held %d DATA bytes, bound %d", p, bound)
	}
	src1.CloseRead()
}
