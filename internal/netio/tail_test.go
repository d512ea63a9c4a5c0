package netio

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"dpn/internal/stream"
)

// TestSessionLinkDeliversTail pins the tail-loss property: the sender
// is done producing with most of the stream unread by a slow receiver
// and every ACK still to come, and none of that may cost the receiver
// a byte or turn into anything but a clean end of stream. (On a socket
// per channel the late ACKs met a closed socket and the reset discarded
// the unread tail; a stream close must never do that.) Every run must
// deliver every byte, and both link halves must finish clean.
func TestSessionLinkDeliversTail(t *testing.T) {
	runs := 500
	if testing.Short() {
		runs = 50
	}
	a := newTestBroker(t)
	b := newTestBroker(t)
	// The shape that lost its tail: 8 batches of 4096 int64 tokens, all
	// of it inside the default credit window, so the sender is done
	// while most of the stream still sits in the receiver's stream
	// buffer.
	const batch, batches = 32 << 10, 8
	payload := make([]byte, batch)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for run := 0; run < runs; run++ {
		src := stream.NewPipe(batch)
		dst := stream.NewPipe(4096) // small: the receiver lags the wire
		tok := a.NewToken()
		hIn, err := a.ServeInbound(tok, dst.WriteEnd())
		if err != nil {
			t.Fatal(err)
		}
		hOut, err := b.DialOutbound(a.Addr(), tok, src.ReadEnd(), 0)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for i := 0; i < batches; i++ {
				if _, err := src.Write(payload); err != nil {
					break
				}
			}
			src.CloseWrite()
		}()
		got, err := readSlowly(dst.ReadEnd(), run)
		if err != nil {
			t.Fatalf("run %d: read: %v", run, err)
		}
		if want := batch * batches; got != want {
			t.Fatalf("run %d: delivered %d bytes of %d (inbound link: %v)", run, got, want, hIn.Wait())
		}
		if err := hIn.Wait(); err != nil {
			t.Fatalf("run %d: inbound link: %v", run, err)
		}
		if err := hOut.Wait(); err != nil {
			t.Fatalf("run %d: outbound link: %v", run, err)
		}
	}
}

// readSlowly drains r to end of stream in small reads, yielding the
// processor for a moment every few of them so the sender finishes well
// ahead of the receiver.
func readSlowly(r io.Reader, run int) (int, error) {
	buf := make([]byte, 2048)
	total := 0
	for k := 0; ; k++ {
		n, err := r.Read(buf)
		for i, c := range buf[:n] {
			if want := byte((total + i) % (32 << 10) * 7); c != want {
				return total, fmt.Errorf("byte %d is %#x, want %#x", total+i, c, want)
			}
		}
		total += n
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		if k%8 == run%8 {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestSessionLinkReportsTruncation pins the other half: an inbound
// link with no retry policy whose stream ends before the sender's final
// frame closes its reader (the cascade must still run) but finishes
// with ErrTruncated, never nil.
func TestSessionLinkReportsTruncation(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	dst := stream.NewPipe(64)
	tok := a.NewToken()
	hIn, err := a.ServeInbound(tok, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	// A sender that delivers a prefix and then vanishes: no EOF frame.
	conn := dialRawSender(t, b, a.Addr(), tok)
	if err := sendFrame(conn, frame{kind: frameData, payload: []byte("prefix")}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := io.ReadFull(dst.ReadEnd(), buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := dst.ReadEnd().Read(buf); err != io.EOF {
		t.Fatalf("reader after peer loss: %v, want io.EOF (cascading close)", err)
	}
	if err := hIn.Wait(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("inbound link finished with %v, want ErrTruncated", err)
	}
}
