package netio

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"
)

// sendFrame and recvFrame send and decode one frame through the wire
// format: onto and off a stream, or a plain writer and reader (stream
// id 0). They check nothing the production code does not: a reader
// takes a body only as long as the bytes that are there.
func sendFrame(w io.Writer, f frame) error {
	e := frameWriter{w: w}
	if st, ok := w.(*muxStream); ok {
		e.id = st.id
	}
	if f.kind != frameData && f.kind != frameDataC {
		e.frame(f)
		return e.flush()
	}
	return e.data(f.kind, append(make([]byte, frameHdrLen), f.payload...))
}

func recvFrame(r any) (frame, error) {
	if st, ok := r.(*muxStream); ok {
		return st.next()
	}
	var rec bytes.Buffer
	if _, err := io.CopyN(&rec, r.(io.Reader), frameHdrLen); err != nil {
		return frame{}, err
	}
	_, _, n := parseHeader(rec.Bytes())
	if _, err := io.CopyN(&rec, r.(io.Reader), int64(n)); err != nil {
		return frame{}, io.ErrUnexpectedEOF
	}
	return decodeFrame(rec.Bytes())
}

func roundTripFrame(t *testing.T, f frame) frame {
	t.Helper()
	var buf bytes.Buffer
	if err := sendFrame(&buf, f); err != nil {
		t.Fatalf("write %c: %v", f.kind, err)
	}
	got, err := recvFrame(&buf)
	if err != nil {
		t.Fatalf("read %c: %v", f.kind, err)
	}
	return got
}

func TestFrameRoundTrips(t *testing.T) {
	cases := []frame{
		{kind: frameData, payload: []byte("payload")},
		{kind: frameData, payload: nil},
		{kind: frameEOF},
		{kind: frameCloseRead},
		{kind: frameFence},
		{kind: frameAck, ack: 12345},
		{kind: frameRedirect, token: "tok-1"},
		{kind: frameHello, token: "t", addr: "1.2.3.4:5"},
		{kind: frameMoving, token: "mv", addr: "host:99"},
	}
	for _, f := range cases {
		got := roundTripFrame(t, f)
		if got.kind != f.kind || got.token != f.token || got.addr != f.addr || got.ack != f.ack {
			t.Fatalf("frame %c mangled: %+v vs %+v", f.kind, got, f)
		}
		if !bytes.Equal(got.payload, f.payload) && !(len(got.payload) == 0 && len(f.payload) == 0) {
			t.Fatalf("frame %c payload mangled", f.kind)
		}
	}
}

func TestFrameDataProperty(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		if err := sendFrame(&buf, frame{kind: frameData, payload: payload}); err != nil {
			return false
		}
		got, err := recvFrame(&buf)
		if err != nil || got.kind != frameData {
			return false
		}
		return bytes.Equal(got.payload, payload) || (len(got.payload) == 0 && len(payload) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBadFramesRejected(t *testing.T) {
	// Unknown kind.
	if _, err := recvFrame(bytes.NewReader([]byte{'Q', 0, 0, 0, 1, 0, 0, 0, 0})); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// A control body shorter or longer than its kind's.
	if _, err := recvFrame(bytes.NewReader([]byte{frameAck, 0, 0, 0, 1, 0, 0, 0, 2, 1, 2})); err == nil {
		t.Fatal("short ACK accepted")
	}
	if _, err := recvFrame(bytes.NewReader([]byte{frameEOF, 0, 0, 0, 1, 0, 0, 0, 1, 7})); err == nil {
		t.Fatal("EOF with a body accepted")
	}
	// Writing an unknown kind fails too.
	if err := sendFrame(io.Discard, frame{kind: 'Q'}); err == nil {
		t.Fatal("unknown write kind accepted")
	}
	// Empty input is a clean EOF.
	if _, err := recvFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty input: %v", err)
	}

	// On the wire, the session's read loop checks every header before it
	// reads the body: a frame of an unknown kind, or one whose body is
	// longer than FrameMax — a HELLO's included, whose body the read loop
	// would otherwise allocate at the length the peer chose — fails the
	// session with ErrBadFrame, and a body the peer cuts short fails it
	// with io.ErrUnexpectedEOF. Either way the session takes its open
	// stream with it and leaves none behind.
	hdr := func(kind byte, id uint32, n uint32) []byte {
		return []byte{kind, byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id),
			byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
	}
	for _, tc := range []struct {
		name string
		send []byte
		want error
	}{
		{"unknown kind", hdr('Q', 1, 0), ErrBadFrame},
		{"oversized DATA", hdr(frameData, 1, 0xFFFFFFFF), ErrBadFrame},
		{"oversized HELLO", hdr(frameHello, 3, FrameMax+1), ErrBadFrame},
		{"truncated DATA", append(hdr(frameData, 1, 10), 1, 2), io.ErrUnexpectedEOF},
	} {
		t.Run("session: "+tc.name, func(t *testing.T) {
			b := newTestBroker(t)
			conn, err := net.Dial("tcp", b.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := dialHandshake(conn, nil, "raw:1"); err != nil {
				t.Fatal(err)
			}
			// Open stream 1 and give it the writer's RESUME, so a DATA frame
			// within the window is one the stream takes.
			tok := b.NewToken()
			open, _ := appendFrame(nil, 1, frame{kind: frameHello, token: tok, addr: "raw:1"})
			open, _ = appendFrame(open, 1, frame{kind: frameResume, window: DefaultWindow})
			if _, err := conn.Write(open); err != nil {
				t.Fatal(err)
			}
			st, err := b.expectWithin(tok, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			sess := st.s
			if _, err := conn.Write(tc.send); err != nil {
				t.Fatal(err)
			}
			conn.(*net.TCPConn).CloseWrite()
			select {
			case <-sess.done:
			case <-time.After(5 * time.Second):
				t.Fatal("the session outlived a bad frame")
			}
			if err := sess.Err(); !errors.Is(err, tc.want) {
				t.Fatalf("session failed with %v, want %v", err, tc.want)
			}
			waitUntil(t, "the session leaves no stream or session", func() bool {
				return streamsOf(sess) == 0 && b.MuxStreams() == 0 && b.MuxSessions() == 0
			})
		})
	}
}

// Any garbage byte stream must produce an error, never a panic.
func TestReadFrameGarbageProperty(t *testing.T) {
	f := func(garbage []byte) bool {
		r := bytes.NewReader(garbage)
		for i := 0; i < len(garbage)+1; i++ {
			if _, err := recvFrame(r); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
