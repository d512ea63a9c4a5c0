package netio

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"dpn/internal/stream"
)

// framesOut reads b's outbound frame counter for kind.
func framesOut(b *Broker, kind byte) int64 {
	return b.ins.Load().framesOut[kind].Value()
}

// rendezvousCount is b's census of registered-but-unmatched tokens and
// parked-but-unclaimed connections: what a stranded move leaks.
func rendezvousCount(b *Broker) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.waiting) + len(b.pending)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5 s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMoveAfterEOF moves the reader of a link (writer on A, reader on
// B, new host C) at three points relative to the writer's EOF — before
// it is sent, while it is in flight, after it was delivered and
// confirmed — for both roles the writer's link end can have. In every
// case the stream is the bytes written followed by EOF, split between
// B's buffer (what arrived before the move) and the new host, nobody
// hangs, and no broker is left holding a rendezvous for a connection
// that will never come (what an unconfirmed EOF does: the writer is gone
// before the MOVING arrives, and the new host waits for a dial forever).
func TestMoveAfterEOF(t *testing.T) {
	payload := payloadPattern(100_000) // well inside the default window: EOF can be sent with nothing acknowledged
	for _, role := range []string{"writer-serves", "writer-dials"} {
		for _, timing := range []string{"before-eof", "eof-in-flight", "eof-confirmed"} {
			t.Run(role+"/"+timing, func(t *testing.T) {
				before := runtime.NumGoroutine()
				a, b, c := newTestBroker(t), newTestBroker(t), newTestBroker(t)

				srcA := stream.NewPipe(len(payload))
				bufB := 1 << 20
				if timing == "eof-in-flight" {
					bufB = 64 // nobody reads it: B's session parks on the first frame, the EOF queues behind
				}
				dstB := stream.NewPipe(bufB)
				tok1 := a.NewToken()
				var hB *Handle
				var err error
				if role == "writer-serves" {
					if _, err = a.ServeOutbound(tok1, srcA.ReadEnd(), 0); err != nil {
						t.Fatal(err)
					}
					hB, err = b.DialInbound(a.Addr(), tok1, dstB.WriteEnd())
				} else {
					if hB, err = b.ServeInbound(tok1, dstB.WriteEnd()); err != nil {
						t.Fatal(err)
					}
					_, err = a.DialOutbound(b.Addr(), tok1, srcA.ReadEnd(), 0)
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, err := srcA.Write(payload); err != nil {
					t.Fatal(err)
				}

				tok2 := c.NewToken()
				dstC := stream.NewPipe(1 << 20)
				serveC := func() {
					if _, err := c.ServeInbound(tok2, dstC.WriteEnd()); err != nil {
						t.Fatal(err)
					}
				}
				moved := make(chan error, 1)
				move := func() {
					go func() { moved <- hB.Move(c.Addr(), tok2) }()
					select {
					case err = <-moved:
					case <-time.After(5 * time.Second):
						t.Fatal("Move did not return within 5 s")
					}
				}

				switch timing {
				case "before-eof":
					serveC()
					move()
					srcA.CloseWrite()
				case "eof-in-flight":
					srcA.CloseWrite()
					waitUntil(t, "writer sends EOF", func() bool { return framesOut(a, frameEOF) == 1 })
					serveC()
					move()
				case "eof-confirmed":
					srcA.CloseWrite()
					waitUntil(t, "reader confirms EOF", func() bool { return framesOut(b, frameBye) == 1 })
					move()
					// The stream ended at B: there is nobody left to tell, the
					// link is over, and B's buffer is the rest of the stream —
					// the caller moves it as a local channel (wire does).
					if !errors.Is(err, ErrNotConnected) {
						t.Fatalf("Move after the confirmed EOF: %v, want ErrNotConnected", err)
					}
					select {
					case <-hB.Done():
					default:
						t.Fatal("Move reported ErrNotConnected on a link that is not Done")
					}
					dstC.CloseWrite() // nothing will come through C; B's buffer ends the stream itself
					err = nil
				}
				if err != nil {
					t.Fatalf("Move: %v", err)
				}

				type readResult struct {
					b   []byte
					err error
				}
				atC := make(chan readResult, 1)
				go func() {
					got, err := io.ReadAll(dstC.ReadEnd())
					atC <- readResult{got, err}
				}()
				var late readResult
				select {
				case late = <-atC:
				case <-time.After(5 * time.Second):
					t.Fatal("new host saw no end of stream within 5 s")
				}
				if late.err != nil {
					t.Fatalf("new host: %v", late.err)
				}
				var leftover []byte
				if timing == "eof-confirmed" {
					// B's buffer was closed by the EOF: it reads to its end.
					if leftover, err = io.ReadAll(dstB.ReadEnd()); err != nil {
						t.Fatalf("old host's buffer: %v", err)
					}
				} else {
					leftover = dstB.Drain()
				}
				if got := append(leftover, late.b...); !bytes.Equal(got, payload) {
					t.Fatalf("stream damaged across the move: %d+%d bytes, want %d", len(leftover), len(late.b), len(payload))
				}

				for name, br := range map[string]*Broker{"A": a, "B": b, "C": c} {
					br := br
					waitUntil(t, "broker "+name+" rendezvous table empties", func() bool { return rendezvousCount(br) == 0 })
					br.Close()
				}
				waitUntil(t, "link and session goroutines exit", func() bool { return runtime.NumGoroutine() <= before })
			})
		}
	}
}

// TestMixedPolicyPeersInteroperate pairs brokers whose retry policies
// differ. Policy is local — it decides what a link does about an
// outage, never what it says on the wire — so a patient broker and a
// zero-policy one carry a hash-checkable 1 MiB stream in both
// directions and both roles, which a policy that switched protocols
// made impossible. Under an injected session cut each end then acts on
// its own policy: the link heals when both ends retry, however
// differently (the dialer's retry needs the server's re-armed
// rendezvous to land on); an end under the zero policy ends at once
// with its documented sentinel — ErrTruncated on a reader, a poisoned
// source on a writer — and its patient peer, finding nobody to resume
// with, degrades at its own LinkDeadline. Nobody hangs, and what the
// reader got is a prefix of the stream.
func TestMixedPolicyPeersInteroperate(t *testing.T) {
	payload := payloadPattern(1 << 20)
	zeroPolicy := func(t *testing.T) *Broker {
		b := newTestBroker(t)
		b.SetResilience(Resilience{})
		return b
	}
	hasty := testResilience()
	hasty.LinkDeadline = 700 * time.Millisecond

	// start binds a stream from w to r in the given roles.
	start := func(t *testing.T, w, r *Broker, readerDials bool) (hOut, hIn *Handle, src, dst *stream.Pipe) {
		t.Helper()
		src = stream.NewPipe(1 << 16)
		dst = stream.NewPipe(1 << 16)
		var err error
		if readerDials {
			tok := w.NewToken()
			if hOut, err = w.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
				t.Fatal(err)
			}
			hIn, err = r.DialInbound(w.Addr(), tok, dst.WriteEnd())
		} else {
			tok := r.NewToken()
			if hIn, err = r.ServeInbound(tok, dst.WriteEnd()); err != nil {
				t.Fatal(err)
			}
			hOut, err = w.DialOutbound(r.Addr(), tok, src.ReadEnd(), 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return hOut, hIn, src, dst
	}
	// finish writes payload[from:] and checks it arrives, followed by a
	// clean end on both halves.
	finish := func(t *testing.T, hOut, hIn *Handle, src, dst *stream.Pipe, from int) {
		t.Helper()
		go func() {
			src.Write(payload[from:])
			src.CloseWrite()
		}()
		got, err := io.ReadAll(dst.ReadEnd())
		if err != nil || !bytes.Equal(got, payload[from:]) {
			t.Fatalf("got %d bytes (err %v), want %d", len(got), err, len(payload)-from)
		}
		if err := hIn.Wait(); err != nil {
			t.Fatalf("inbound half: %v", err)
		}
		if err := hOut.Wait(); err != nil {
			t.Fatalf("outbound half: %v", err)
		}
	}
	// cut lets a prefix through and then kills the session under the link.
	const prefix = 1000
	cut := func(t *testing.T, src, dst *stream.Pipe, at *Broker) {
		t.Helper()
		if _, err := src.Write(payload[:prefix]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(dst.ReadEnd(), make([]byte, prefix)); err != nil {
			t.Fatal(err)
		}
		at.closeMuxSessions()
	}

	t.Run("clean", func(t *testing.T) {
		patient, plain := newResilientBroker(t, DefaultResilience()), zeroPolicy(t)
		for _, readerDials := range []bool{true, false} {
			hOut, hIn, src, dst := start(t, patient, plain, readerDials)
			finish(t, hOut, hIn, src, dst, 0)
			hOut, hIn, src, dst = start(t, plain, patient, readerDials)
			finish(t, hOut, hIn, src, dst, 0)
		}
	})
	t.Run("cut/both-retry", func(t *testing.T) {
		w, r := newResilientBroker(t, DefaultResilience()), newResilientBroker(t, testResilience())
		hOut, hIn, src, dst := start(t, w, r, true)
		cut(t, src, dst, r)
		finish(t, hOut, hIn, src, dst, prefix)
		if r.ins.Load().partitionHeal.Value() == 0 {
			t.Fatal("no heal recorded on the dialer")
		}
	})
	t.Run("cut/zero-policy-reader", func(t *testing.T) {
		w, r := newResilientBroker(t, hasty), zeroPolicy(t)
		hOut, hIn, src, dst := start(t, w, r, true)
		cut(t, src, dst, r)
		if err := hIn.Wait(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("zero-policy reader finished with %v, want ErrTruncated", err)
		}
		if rest, err := io.ReadAll(dst.ReadEnd()); err != nil || len(rest) != 0 {
			t.Fatalf("reader after the cut: %d bytes, %v; want an (early) end of stream", len(rest), err)
		}
		if err := hOut.Wait(); err == nil {
			t.Fatal("patient writer finished clean with the stream unfinished")
		}
		if _, err := src.Write([]byte("x")); err == nil {
			t.Fatal("source still writable after the link degraded")
		}
	})
	t.Run("cut/zero-policy-writer", func(t *testing.T) {
		w, r := zeroPolicy(t), newResilientBroker(t, hasty)
		hOut, hIn, src, dst := start(t, w, r, true)
		cut(t, src, dst, r)
		hOut.Wait()
		if _, err := src.Write([]byte("x")); err == nil {
			t.Fatal("zero-policy writer's source still writable after the cut")
		}
		if err := hIn.Wait(); !errors.Is(err, ErrTruncated) || !errors.Is(err, ErrLinkDeadline) {
			t.Fatalf("patient reader finished with %v, want ErrTruncated after its LinkDeadline", err)
		}
		if rest, err := io.ReadAll(dst.ReadEnd()); err != nil || len(rest) != 0 {
			t.Fatalf("reader after the cut: %d bytes, %v; want an (early) end of stream", len(rest), err)
		}
	})
}

// TestRedirectDuringReaderMove calls Redirect on a link's writer end in
// a loop while its reader moves: the MOVING re-points the writer at the
// reader's new host from the link's own goroutine, and Redirect must
// read that address under the handle's lock — it reports the old host
// or the new one, never a torn value, and the new one once the re-dial
// has landed.
func TestRedirectDuringReaderMove(t *testing.T) {
	a, b, c := newTestBroker(t), newTestBroker(t), newTestBroker(t)
	src := stream.NewPipe(1 << 12)
	dstB, dstC := stream.NewPipe(1<<12), stream.NewPipe(1<<12)
	tok := a.NewToken()
	hOut, err := a.ServeOutbound(tok, src.ReadEnd(), 0)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := b.DialInbound(a.Addr(), tok, dstB.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	tok2 := c.NewToken()
	if _, err := c.ServeInbound(tok2, dstC.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	if err := hB.WaitReady(); err != nil {
		t.Fatal(err)
	}
	redirectTo := a.NewToken()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			peer, err := hOut.Redirect(redirectTo)
			if err != nil {
				t.Errorf("Redirect: %v", err)
				return
			}
			if peer != b.Addr() && peer != c.Addr() {
				t.Errorf("Redirect reported %q, want %s or %s", peer, b.Addr(), c.Addr())
				return
			}
		}
	}()
	if err := hB.Move(c.Addr(), tok2); err != nil {
		t.Fatalf("Move: %v", err)
	}
	waitUntil(t, "the writer re-points at the new host", func() bool {
		peer, _ := hOut.Redirect(redirectTo)
		return peer == c.Addr()
	})
	close(stop)
	<-stopped
	src.CloseRead()
}
