package netio

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutinesIn counts goroutines whose stack passes through fn.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), fn)
}

// acceptGoroutines counts goroutines still inside the accept path.
func acceptGoroutines() int { return goroutinesIn("netio.(*Broker).handleConn") }

// The acceptor takes a session handshake or nothing: a connection that
// opens with any byte but Magic — a well-formed per-channel HELLO of the
// old protocol included — and one that sends nothing at all are both
// closed within handshakeTimeout, and leave no session, no parked
// rendezvous and no goroutine behind. Within a session, a stream exists
// once its HELLO arrives: a frame for a stream no HELLO opened (a
// stream silent on HELLO) is answered with RST and leaves no stream and
// no rendezvous behind.
func TestAcceptRejectsNonSessionConnections(t *testing.T) {
	old := handshakeTimeout()
	setHandshakeTimeout(200 * time.Millisecond)
	defer setHandshakeTimeout(old)

	hello := append([]byte{frameHello}, appendString(appendString(nil, "tok"), "127.0.0.1:1")...)
	for _, tc := range []struct {
		name  string
		opens []byte
	}{
		{"old HELLO", hello},
		{"other protocol", []byte("GET / HTTP/1.1\r\n\r\n")},
		{"silent", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newTestBroker(t)
			conn, err := net.Dial("tcp", b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.opens); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			conn.SetReadDeadline(start.Add(10 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err == nil {
				t.Fatal("broker answered a connection that never opened a session")
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("connection closed after %v, want within the %v handshake timeout", d, handshakeTimeout())
			}
			deadline := time.Now().Add(5 * time.Second)
			for acceptGoroutines() > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d accept goroutines outlived the rejected connection", acceptGoroutines())
				}
				time.Sleep(5 * time.Millisecond)
			}
			if n := b.MuxSessions(); n != 0 {
				t.Fatalf("rejected connection left %d sessions", n)
			}
			b.mu.Lock()
			parked := len(b.pending)
			b.mu.Unlock()
			if parked != 0 {
				t.Fatalf("rejected connection parked %d rendezvous entries", parked)
			}
		})
	}
	t.Run("silent stream", func(t *testing.T) {
		a, b := newTestBroker(t), newTestBroker(t)
		sess, err := a.muxSession(b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		sess.mu.Lock()
		st := sess.add(sess.nextID) // opened here, never announced
		sess.nextID += 2
		sess.mu.Unlock()
		defer st.Close()
		if err := sendFrame(st, frame{kind: frameResume}); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := st.next()
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrStreamReset) {
				t.Fatalf("a frame on a stream no HELLO opened: %v, want ErrStreamReset", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the peer never reset a stream no HELLO opened")
		}
		waitUntil(t, "the reset stream leaves the table", func() bool { return streamsOf(sess) == 0 })
		if n := rendezvousCount(b); n != 0 {
			t.Fatalf("a stream no HELLO opened left %d rendezvous entries", n)
		}
		if n := b.MuxStreams(); n != 0 {
			t.Fatalf("a stream no HELLO opened left %d streams at the peer", n)
		}
	})
}
