package netio

import (
	"bytes"
	"io"
	"testing"
	"time"

	"dpn/internal/stream"
)

// TestFlowControlBoundsInFlightBytes verifies that a sender with an
// undrained receiver stalls after roughly window + receiver-pipe bytes
// — the property that makes bounded channel capacity hold across the
// network even though kernel socket buffers are huge.
func TestFlowControlBoundsInFlightBytes(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)

	const window = 4096
	const dstCap = 2048
	src := stream.NewPipe(1 << 20)
	dst := stream.NewPipe(dstCap)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), window); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	// Nobody reads dst. Fill the source far beyond window+dstCap.
	payload := bytes.Repeat([]byte("z"), 1<<20)
	go src.Write(payload)

	// Give the link time to move what it is allowed to move.
	time.Sleep(300 * time.Millisecond)
	moved := a.BytesOut()
	// Frame overhead is a few bytes per 32 KiB chunk; the bound is the
	// window plus one chunk of slack plus the receiver pipe.
	limit := int64(window + chunkSize + dstCap + 1024)
	if moved > limit {
		t.Fatalf("sender moved %d bytes with a stalled receiver; want ≤ %d", moved, limit)
	}
	if moved == 0 {
		t.Fatal("sender moved nothing")
	}
	// Draining the receiver releases the stream.
	go io.Copy(io.Discard, dst.ReadEnd())
	deadline := time.Now().Add(30 * time.Second)
	for a.BytesOut() < int64(len(payload)) {
		if time.Now().After(deadline) {
			t.Fatalf("stream stalled after drain: %d of %d", a.BytesOut(), len(payload))
		}
		time.Sleep(time.Millisecond)
	}
	src.CloseWrite()
}

// TestFlowControlStreamIntegrity pushes a large payload through a tiny
// window and checks every byte arrives in order.
func TestFlowControlStreamIntegrity(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	src := stream.NewPipe(1 << 16)
	dst := stream.NewPipe(512)
	tok := a.NewToken()
	a.ServeOutbound(tok, src.ReadEnd(), 256)
	b.DialInbound(a.Addr(), tok, dst.WriteEnd())
	payload := make([]byte, 300000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	go func() {
		src.Write(payload)
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("corrupted: got %d bytes", len(got))
	}
}

// TestConnDropPoisonsBothEnds kills the TCP connection under a live
// link: the writer-side source must be closed (poisoning the producer)
// and the reader side must observe end of stream, so the distributed
// cascade of §3.4 still terminates the graph after a network failure.
func TestConnDropPoisonsBothEnds(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	src := stream.NewPipe(64)
	dst := stream.NewPipe(64)
	tok := a.NewToken()
	hOut, err := a.ServeOutbound(tok, src.ReadEnd(), 0)
	if err != nil {
		t.Fatal(err)
	}
	hIn, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	// Move a byte to establish the conn, then sever it by closing B's
	// broker (closes its listener and pending conns; the live conn dies
	// when we close it through the handle side: simulate by closing the
	// underlying conn via the broker's counters being unreachable —
	// simplest reliable method: close the whole broker including conns).
	src.Write([]byte{1})
	buf := make([]byte, 1)
	if _, err := io.ReadFull(dst.ReadEnd(), buf); err != nil {
		t.Fatal(err)
	}
	// Abruptly sever the connection under the link: kill B's session to
	// A, and with it the stream the link runs on.
	b.closeMuxSessions()

	// Writer side: next writes eventually fail.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := src.Write([]byte{9}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never poisoned after connection loss")
		}
		time.Sleep(time.Millisecond)
	}
	hOut.Wait()
	// Reader side: stream ends.
	if _, err := io.ReadAll(dst.ReadEnd()); err != nil && err != io.EOF {
		t.Fatalf("reader error: %v", err)
	}
	hIn.Wait()
}
