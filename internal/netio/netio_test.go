package netio

import (
	"bytes"
	"io"
	"os"
	"testing"
	"time"

	"dpn/internal/stream"
)

// newTestBroker starts a broker for one test. With DPN_TEST_POLICY=retry
// in the environment every such broker gets DefaultResilience(), so the
// suite — the Move tests above all — can be replayed unmodified under a
// retry policy (scripts/check.sh -chaos does): a policy may change when
// a move completes, never whether.
func newTestBroker(t *testing.T) *Broker {
	t.Helper()
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("DPN_TEST_POLICY") == "retry" {
		b.SetResilience(DefaultResilience())
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// dialRawSender plays the sending half of a link by hand: it dials the
// inbound link serving tok at addr and performs the RESUME exchange
// that opens every connection, returning the stream ready for DATA.
func dialRawSender(t *testing.T, b *Broker, addr, tok string) *muxStream {
	t.Helper()
	conn, err := b.dial(addr, tok)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := recvFrame(conn); err != nil || f.kind != frameResume || f.off != 0 {
		t.Fatalf("opening frame %+v, %v; want RESUME(0)", f, err)
	}
	if err := sendFrame(conn, frame{kind: frameResume, window: DefaultWindow}); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestServeOutboundDialInbound(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)

	src := stream.NewPipe(64)
	dst := stream.NewPipe(64)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	h, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		src.Write([]byte("hello across nodes"))
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil || string(got) != "hello across nodes" {
		t.Fatalf("got %q, %v", got, err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestServeInboundDialOutbound(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)

	src := stream.NewPipe(64)
	dst := stream.NewPipe(64)
	tok := a.NewToken()
	hIn, err := a.ServeInbound(tok, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialOutbound(a.Addr(), tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	go func() {
		src.Write([]byte("reverse"))
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil || string(got) != "reverse" {
		t.Fatalf("got %q, %v", got, err)
	}
	hIn.Wait()
}

func TestDialBeforeServeRace(t *testing.T) {
	// A connection can arrive before the corresponding end registers
	// (redirects race); the broker parks it.
	a := newTestBroker(t)
	b := newTestBroker(t)
	src := stream.NewPipe(64)
	dst := stream.NewPipe(64)
	tok := "early-token"
	if _, err := b.DialOutbound(a.Addr(), tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the HELLO land first
	if _, err := a.ServeInbound(tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	go func() {
		src.Write([]byte("parked"))
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil || string(got) != "parked" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestCloseReadPropagatesUpstream(t *testing.T) {
	// The reader side closes; the writer-side source must be poisoned so
	// the producing process observes the exception (§3.4 across nodes).
	a := newTestBroker(t)
	b := newTestBroker(t)
	src := stream.NewPipe(16)
	dst := stream.NewPipe(16)
	tok := a.NewToken()
	hOut, err := a.ServeOutbound(tok, src.ReadEnd(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	// Move one byte end to end so the link is established and flowing.
	src.Write([]byte{1})
	buf := make([]byte, 1)
	if _, err := io.ReadFull(dst.ReadEnd(), buf); err != nil {
		t.Fatal(err)
	}
	// Reader closes.
	dst.CloseRead()
	// Keep writing until the poison arrives.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := src.Write([]byte{2}); err == stream.ErrReadClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never observed remote reader close")
		}
		time.Sleep(time.Millisecond)
	}
	hOut.Wait()
}

func TestEOFDeliveredAfterDrain(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	src := stream.NewPipe(1024)
	dst := stream.NewPipe(8) // small: forces backpressure
	tok := a.NewToken()
	a.ServeOutbound(tok, src.ReadEnd(), 0)
	b.DialInbound(a.Addr(), tok, dst.WriteEnd())
	payload := bytes.Repeat([]byte("x"), 4000)
	go func() {
		src.Write(payload)
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %d bytes, want %d", len(got), len(payload))
	}
}

func TestRedirectConnectsDirectly(t *testing.T) {
	// Figure 15 / §4.3: writer on A feeding reader on B; the writer
	// moves to C. After Redirect, traffic flows C→B with no bytes
	// relayed through A.
	a := newTestBroker(t)
	b := newTestBroker(t)
	c := newTestBroker(t)

	srcA := stream.NewPipe(64)
	dstB := stream.NewPipe(1 << 16)
	tok1 := a.NewToken()
	hA, err := a.ServeOutbound(tok1, srcA.ReadEnd(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok1, dstB.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	// Phase 1: bytes flow A→B.
	srcA.Write([]byte("from-A."))
	readBuf := make([]byte, 7)
	if _, err := io.ReadFull(dstB.ReadEnd(), readBuf); err != nil {
		t.Fatal(err)
	}

	// Phase 2: writer moves to C. A announces the redirect, drains, and
	// disappears from the path.
	tok2 := a.NewToken()
	peer, err := hA.Redirect(tok2)
	if err != nil {
		t.Fatal(err)
	}
	if peer != b.Addr() {
		t.Fatalf("peer addr = %q, want %q", peer, b.Addr())
	}
	srcA.CloseWrite() // drain: triggers the REDIRECT final frame
	if err := hA.Wait(); err != nil {
		t.Fatal(err)
	}

	aInBefore, aOutBefore := a.BytesIn(), a.BytesOut()

	srcC := stream.NewPipe(64)
	if _, err := c.DialOutbound(peer, tok2, srcC.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("C"), 10000)
	go func() {
		srcC.Write(payload)
		srcC.CloseWrite()
	}()
	got, err := io.ReadAll(dstB.ReadEnd())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("B received %d bytes, want %d", len(got), len(payload))
	}
	// Decentralized: no bytes moved through A during phase 2.
	if a.BytesIn() != aInBefore || a.BytesOut() != aOutBefore {
		t.Fatalf("traffic relayed through A: in %d→%d, out %d→%d",
			aInBefore, a.BytesIn(), aOutBefore, a.BytesOut())
	}
	if c.BytesOut() == 0 || b.BytesIn() == 0 {
		t.Fatal("expected direct C→B traffic")
	}
}

func TestMoveReaderReconnects(t *testing.T) {
	// The dual redirection: writer on A, reader on B; the reader moves
	// to C. B sends MOVING; A fences and reconnects to C; bytes written
	// after the move arrive at C.
	a := newTestBroker(t)
	b := newTestBroker(t)
	c := newTestBroker(t)

	srcA := stream.NewPipe(1 << 16)
	dstB := stream.NewPipe(1 << 16)
	tok1 := a.NewToken()
	if _, err := a.ServeOutbound(tok1, srcA.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	hB, err := b.DialInbound(a.Addr(), tok1, dstB.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	srcA.Write([]byte("early-"))
	buf := make([]byte, 6)
	if _, err := io.ReadFull(dstB.ReadEnd(), buf); err != nil {
		t.Fatal(err)
	}

	// Reader moves to C: C registers, B announces the move.
	tok2 := c.NewToken()
	dstC := stream.NewPipe(1 << 16)
	if _, err := c.ServeInbound(tok2, dstC.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	if err := hB.Move(c.Addr(), tok2); err != nil {
		t.Fatal(err)
	}
	// Whatever B buffered after "early-" would migrate as leftover; here
	// nothing was in flight. New writes reach C directly.
	go func() {
		srcA.Write([]byte("late-to-C"))
		srcA.CloseWrite()
	}()
	got, err := io.ReadAll(dstC.ReadEnd())
	if err != nil || string(got) != "late-to-C" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestMoveWithInFlightDataPreservesBytes(t *testing.T) {
	// Bytes sent before the fence land at B (leftover); bytes after land
	// at C; concatenation preserves the stream.
	a := newTestBroker(t)
	b := newTestBroker(t)
	c := newTestBroker(t)

	srcA := stream.NewPipe(1 << 16)
	dstB := stream.NewPipe(1 << 16)
	tok1 := a.NewToken()
	a.ServeOutbound(tok1, srcA.ReadEnd(), 0)
	hB, err := b.DialInbound(a.Addr(), tok1, dstB.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	// Write a burst that is (likely) in flight when the move starts.
	first := bytes.Repeat([]byte("1"), 5000)
	srcA.Write(first)

	tok2 := c.NewToken()
	dstC := stream.NewPipe(1 << 16)
	c.ServeInbound(tok2, dstC.WriteEnd())
	if err := hB.Move(c.Addr(), tok2); err != nil {
		t.Fatal(err)
	}
	// Everything that arrived at B before the fence:
	leftover := dstB.Drain()

	second := bytes.Repeat([]byte("2"), 5000)
	go func() {
		srcA.Write(second)
		srcA.CloseWrite()
	}()
	late, err := io.ReadAll(dstC.ReadEnd())
	if err != nil {
		t.Fatal(err)
	}
	got := append(leftover, late...)
	want := append(append([]byte{}, first...), second...)
	if !bytes.Equal(got, want) {
		t.Fatalf("stream corrupted across move: got %d bytes, want %d", len(got), len(want))
	}
}

// TestMoveWithFullReaderBuffer is the reader-move deadlock in
// miniature: the reader on B is suspended for the move, so B's buffer
// is full and stays full, the inbound session is parked writing into
// it — and used to stay parked, never reaching the FENCE that Move
// waits for. Move must return, and the bytes must split cleanly
// between B's buffer and the new host.
func TestMoveWithFullReaderBuffer(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	c := newTestBroker(t)

	srcA := stream.NewPipe(1 << 16)
	dstB := stream.NewPipe(256) // nobody reads it: full after the first frame
	tok1 := a.NewToken()
	if _, err := a.ServeOutbound(tok1, srcA.ReadEnd(), 4096); err != nil {
		t.Fatal(err)
	}
	hB, err := b.DialInbound(a.Addr(), tok1, dstB.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	// Far more than one frame plus the credit window, so the writer is
	// still mid-stream when the move begins.
	want := make([]byte, 1<<20)
	for i := range want {
		want[i] = byte(i * 13)
	}
	go func() {
		srcA.Write(want)
		srcA.CloseWrite()
	}()
	for dstB.Len() < dstB.Cap() { // the session is now (about to be) parked on a full buffer
		time.Sleep(time.Millisecond)
	}

	tok2 := c.NewToken()
	dstC := stream.NewPipe(1 << 16)
	if _, err := c.ServeInbound(tok2, dstC.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	moved := make(chan error, 1)
	go func() { moved <- hB.Move(c.Addr(), tok2) }()
	select {
	case err := <-moved:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Move never returned: inbound session parked on the full buffer")
	}
	leftover := dstB.Drain()
	late, err := io.ReadAll(dstC.ReadEnd())
	if err != nil {
		t.Fatal(err)
	}
	if got := append(leftover, late...); !bytes.Equal(got, want) {
		t.Fatalf("stream damaged across the move: %d+%d bytes, want %d", len(leftover), len(late), len(want))
	}
}

func TestBrokerNewTokenUnique(t *testing.T) {
	a := newTestBroker(t)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tok := a.NewToken()
		if seen[tok] {
			t.Fatalf("duplicate token %q", tok)
		}
		seen[tok] = true
	}
}

func TestBrokerDuplicateTokenRejected(t *testing.T) {
	a := newTestBroker(t)
	p := stream.NewPipe(8)
	if _, err := a.ServeInbound("dup", p.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ServeInbound("dup", p.WriteEnd()); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestBrokerCloseIdempotent(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ServeInbound("x", stream.NewPipe(1).WriteEnd()); err == nil {
		t.Fatal("registration on closed broker accepted")
	}
}

func TestHandleAccessors(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	src := stream.NewPipe(8)
	dst := stream.NewPipe(8)
	tok := a.NewToken()
	hOut, _ := a.ServeOutbound(tok, src.ReadEnd(), 0)
	hIn, _ := b.DialInbound(a.Addr(), tok, dst.WriteEnd())
	if !hOut.Outbound() || hIn.Outbound() {
		t.Fatal("Outbound() wrong")
	}
	if err := hOut.WaitReady(); err != nil {
		t.Fatal(err)
	}
	peer, err := hOut.PeerAddr()
	if err != nil || peer != b.Addr() {
		t.Fatalf("PeerAddr = %q, %v", peer, err)
	}
	if _, err := hIn.Redirect("x"); err == nil {
		t.Fatal("Redirect on inbound accepted")
	}
	if err := hOut.Move("x", "y"); err == nil {
		t.Fatal("Move on outbound accepted")
	}
	src.CloseWrite()
	<-hOut.Done()
}

func TestBrokerExpiresUnclaimedPendingConns(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	a.mu.Lock()
	a.pendingTTL = 10 * time.Millisecond
	a.mu.Unlock()
	// Dial with a token nobody will ever claim: the conn parks.
	src1 := stream.NewPipe(8)
	if _, err := b.DialOutbound(a.Addr(), "never-claimed", src1.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	// A second early dial triggers the expiry sweep of the first.
	src2 := stream.NewPipe(8)
	if _, err := b.DialOutbound(a.Addr(), "second-early", src2.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	// The first conn must have been dropped: its sender observes the
	// close and poisons its source.
	deadline := time.Now().Add(10 * time.Second)
	for !src1.ReadClosed() {
		if time.Now().After(deadline) {
			t.Fatal("expired pending conn did not close")
		}
		time.Sleep(time.Millisecond)
	}
	// The second one is still claimable.
	dst := stream.NewPipe(8)
	if _, err := a.ServeInbound("second-early", dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	src2.Write([]byte{7})
	buf := make([]byte, 1)
	if _, err := io.ReadFull(dst.ReadEnd(), buf); err != nil || buf[0] != 7 {
		t.Fatalf("claimable conn broken: %v", err)
	}
}
