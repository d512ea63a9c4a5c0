package netio

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

// sendFrame and recvFrame send and decode one frame through the
// link's frame codec.
func sendFrame(w io.Writer, f frame) error {
	e := frameWriter{w: w}
	if f.kind != frameData && f.kind != frameDataC {
		e.frame(f)
		return e.flush()
	}
	if _, err := encodeFrame(nil, f); err != nil {
		return err
	}
	return e.data(f.kind, append(make([]byte, frameHdrLen), f.payload...))
}

func recvFrame(r io.Reader) (frame, error) {
	return (&frameReader{r: r}).next()
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
	if _, err := recvFrame(bytes.NewReader([]byte{'Z'})); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Oversized DATA length prefix.
	var buf bytes.Buffer
	buf.WriteByte(frameData)
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := recvFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated payload.
	buf.Reset()
	buf.WriteByte(frameData)
	buf.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, err := recvFrame(&buf); err != io.ErrUnexpectedEOF {
		t.Fatal("truncated frame not flagged")
	}
	// Writing an unknown kind fails too.
	if err := sendFrame(io.Discard, frame{kind: 'Q'}); err == nil {
		t.Fatal("unknown write kind accepted")
	}
	// Oversized payload on the write side.
	if err := sendFrame(io.Discard, frame{kind: frameData, payload: make([]byte, maxFramePayload+1)}); err == nil {
		t.Fatal("oversized write accepted")
	}
	// Empty input is a clean EOF.
	if _, err := recvFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty input: %v", err)
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
