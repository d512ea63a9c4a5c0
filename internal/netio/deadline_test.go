package netio

import (
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// acceptGoroutines counts goroutines still inside the accept path.
func acceptGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "netio.(*Broker).handleConn")
}

// The acceptor takes a session handshake or nothing: a connection that
// opens with any byte but mux.Magic — a well-formed per-channel HELLO
// of the old protocol included — and one that sends nothing at all are
// both closed within handshakeTimeout, and leave no session, no parked
// rendezvous and no goroutine behind.
func TestAcceptRejectsNonSessionConnections(t *testing.T) {
	old := handshakeTimeout()
	setHandshakeTimeout(200 * time.Millisecond)
	defer setHandshakeTimeout(old)

	hello, err := encodeFrame(nil, frame{kind: frameHello, token: "tok", addr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
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
}
