package mux

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// sessionPair builds a dialer/acceptor session pair over a real TCP
// connection.
func sessionPair(t *testing.T, dialCfg, acceptCfg Config) (*Session, *Session) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type accepted struct {
		sess *Session
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- accepted{nil, err}
			return
		}
		sess, err := Accept(conn, acceptCfg)
		ch <- accepted{sess, err}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	dialSess, dialErr := Dial(conn, dialCfg)
	acc := <-ch
	if dialErr != nil {
		t.Fatalf("Dial: %v (accept side: %v)", dialErr, acc.err)
	}
	if acc.err != nil {
		dialSess.Close()
		t.Fatalf("Accept: %v", acc.err)
	}
	t.Cleanup(func() {
		dialSess.Close()
		acc.sess.Close()
	})
	return dialSess, acc.sess
}

func TestHandshakeEchoAndHalfClose(t *testing.T) {
	psk := []byte("cluster-secret")
	d, a := sessionPair(t,
		Config{PSK: psk, Addr: "dialer:1"},
		Config{PSK: psk, Addr: "acceptor:1"})

	if got := d.PeerAddr(); got != "acceptor:1" {
		t.Fatalf("dialer sees peer addr %q, want acceptor:1", got)
	}
	if got := a.PeerAddr(); got != "dialer:1" {
		t.Fatalf("acceptor sees peer addr %q, want dialer:1", got)
	}

	st, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if st.ID()%2 != 1 {
		t.Fatalf("dialer-opened stream id %d is even", st.ID())
	}
	peer, err := a.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}

	msg := []byte("hello across the session")
	if _, err := st.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(peer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("peer read %q, want %q", got, msg)
	}

	// The other direction still works after the half close.
	reply := []byte("and back")
	if _, err := peer.Write(reply); err != nil {
		t.Fatal(err)
	}
	if err := peer.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reply) {
		t.Fatalf("read back %q, want %q", got, reply)
	}
	st.Close()
	peer.Close()
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
		_, err = Accept(conn, Config{PSK: []byte("right")})
		srvErr <- err
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Dial(conn, Config{PSK: []byte("wrong")})
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("Dial with wrong PSK: %v, want ErrAuthFailed", err)
	}
	// The server side fails too — with ErrAuthFailed if the dialer's
	// bogus proof arrived, or a conn error if the dialer hung up first.
	if err := <-srvErr; err == nil {
		t.Fatal("Accept with mismatched PSK succeeded")
	}
}

func TestStreamLimit(t *testing.T) {
	d, _ := sessionPair(t, Config{MaxStreams: 2}, Config{})
	if _, err := d.OpenStream(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.OpenStream(); err != nil {
		t.Fatal(err)
	}
	_, err := d.OpenStream()
	if !errors.Is(err, ErrStreamLimit) {
		t.Fatalf("third OpenStream: %v, want ErrStreamLimit", err)
	}
}

func TestSessionClose(t *testing.T) {
	d, a := sessionPair(t, Config{}, Config{})
	st, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AcceptStream(); err != nil {
		t.Fatal(err)
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.OpenStream(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("OpenStream after Close: %v, want ErrSessionClosed", err)
	}
	if _, err := st.Write([]byte("x")); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("stream Write after Close: %v, want ErrSessionClosed", err)
	}

	// The peer learns via the GO frame and fails the same way.
	select {
	case <-a.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("peer session did not observe GO within 5s")
	}
	if err := a.Err(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("peer session error %v, want ErrSessionClosed", err)
	}
}

func TestCreditBlocksAndResumes(t *testing.T) {
	window := 4096
	var stalls int
	var mu sync.Mutex
	cfg := Config{Hooks: Hooks{CreditStall: func() {
		mu.Lock()
		stalls++
		mu.Unlock()
	}}}
	d, a := sessionPair(t, cfg, Config{Window: window})

	st, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	peer, err := a.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}

	// Three windows of data with nobody reading: the writer must block
	// once the peer's window is exhausted.
	payload := make([]byte, 3*window)
	for i := range payload {
		payload[i] = byte(i)
	}
	done := make(chan error, 1)
	go func() {
		_, err := st.Write(payload)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("write of 3x window returned early (err=%v) — credit not enforced", err)
	case <-time.After(200 * time.Millisecond):
	}

	got := make([]byte, 0, len(payload))
	buf := make([]byte, 1024)
	for len(got) < len(payload) {
		n, err := peer.Read(buf)
		if err != nil {
			t.Fatalf("read after %d bytes: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through credit window")
	}
	mu.Lock()
	defer mu.Unlock()
	if stalls == 0 {
		t.Fatal("credit stall hook never fired despite a blocked writer")
	}
}

// Close is what unblocks a Write parked on an empty credit window: the
// writer's own side closing (a link ending, a broker shutting down)
// must not leave it waiting for credit the peer will never grant.
func TestCloseUnblocksCreditWait(t *testing.T) {
	stalled := make(chan struct{}, 1)
	hooks := Hooks{CreditStall: func() {
		select {
		case stalled <- struct{}{}:
		default:
		}
	}}
	d, a := sessionPair(t, Config{Hooks: hooks}, Config{Window: 2048})
	st, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AcceptStream(); err != nil {
		t.Fatal(err)
	}
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := st.Write(make([]byte, 1<<20))
		done <- result{n, err}
	}()
	<-stalled // the window is 2 KiB and nobody reads
	st.Close()
	select {
	case r := <-done:
		if !errors.Is(r.err, net.ErrClosed) {
			t.Fatalf("credit-blocked write: n=%d err=%v, want net.ErrClosed", r.n, r.err)
		}
		if r.n == 0 {
			t.Fatal("write made no progress before blocking on credit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock a credit-blocked Write")
	}
}

func TestConcurrentStreamsFairAndRaceFree(t *testing.T) {
	d, a := sessionPair(t, Config{}, Config{})

	const streams = 16
	const perStream = 512 << 10 // 2 windows each, forces credit cycling

	var wg sync.WaitGroup
	errs := make(chan error, streams*2)

	// Acceptor echoes stream length back as it drains.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < streams; i++ {
			st, err := a.AcceptStream()
			if err != nil {
				errs <- err
				return
			}
			wg.Add(1)
			go func(st *Stream) {
				defer wg.Done()
				n, err := io.Copy(io.Discard, st)
				if err != nil {
					errs <- fmt.Errorf("drain: %w", err)
					return
				}
				if n != perStream {
					errs <- fmt.Errorf("drained %d bytes, want %d", n, perStream)
				}
				st.Close()
			}(st)
		}
	}()

	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := d.OpenStream()
			if err != nil {
				errs <- err
				return
			}
			chunk := make([]byte, 8192)
			for j := range chunk {
				chunk[j] = byte(i)
			}
			for sent := 0; sent < perStream; sent += len(chunk) {
				if _, err := st.Write(chunk); err != nil {
					errs <- fmt.Errorf("stream %d write: %w", i, err)
					return
				}
			}
			if err := st.CloseWrite(); err != nil {
				errs <- err
			}
		}(i)
	}

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent stream exchange wedged — fairness or credit bug")
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestStreamCountAndTeardown(t *testing.T) {
	d, a := sessionPair(t, Config{}, Config{})
	var sts []*Stream
	for i := 0; i < 8; i++ {
		st, err := d.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		sts = append(sts, st)
		peer, err := a.AcceptStream()
		if err != nil {
			t.Fatal(err)
		}
		go func() { io.Copy(io.Discard, peer); peer.Close() }()
	}
	if n := d.NumStreams(); n != 8 {
		t.Fatalf("dialer NumStreams = %d, want 8", n)
	}
	for _, st := range sts {
		st.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.NumStreams() > 0 || a.NumStreams() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("streams lingering after close: dialer=%d acceptor=%d",
				d.NumStreams(), a.NumStreams())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseUnderASendingPeerLeavesNoStream closes a stream whose peer
// is still writing: the late data is answered with RST, the peer — told
// to reset — never FINs, and the closed side must drop the stream from
// its table itself instead of keeping it (and its receive ring) for the
// life of the session. A link whose consumer closes mid-stream (§3.4)
// does exactly this.
func TestCloseUnderASendingPeerLeavesNoStream(t *testing.T) {
	d, a := sessionPair(t, Config{}, Config{})
	st, err := d.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	peer, err := a.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(peer, make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	// Keep writing until the RST lands; then close our side too.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := st.Write([]byte("late")); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never saw the reset")
		}
		time.Sleep(time.Millisecond)
	}
	st.Close()
	for d.NumStreams() > 0 || a.NumStreams() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("streams lingering after close: dialer=%d acceptor=%d",
				d.NumStreams(), a.NumStreams())
		}
		time.Sleep(5 * time.Millisecond)
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
		acceptHandshake(conn, nil, "blackhole:1", DefaultWindow)
		// Keep the conn open but silent; drain to avoid TCP pushback.
		io.Copy(io.Discard, conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Dial(conn, Config{KeepAlive: 25 * time.Millisecond, Timeout: 75 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	select {
	case <-sess.Done():
		if err := sess.Err(); !errors.Is(err, errKeepAlive) {
			t.Fatalf("session died with %v, want keepalive timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("keepalive never declared the silent peer dead")
	}
}
