package netio

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"dpn/internal/faults"
	"dpn/internal/stream"
)

func newMuxBroker(t *testing.T, psk []byte) *Broker {
	t.Helper()
	b := newTestBroker(t)
	b.SetPSK(psk)
	return b
}

func TestMuxLinkRoundTrip(t *testing.T) {
	a := newMuxBroker(t, []byte("s3cret"))
	b := newMuxBroker(t, []byte("s3cret"))

	src := stream.NewPipe(1 << 16)
	dst := stream.NewPipe(1 << 16)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	h, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	payload := payloadPattern(300_000)
	go func() {
		src.Write(payload)
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("got %d bytes (err %v), want %d", len(got), err, len(payload))
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if a.MuxSessions() != 1 || b.MuxSessions() != 1 {
		t.Fatalf("sessions after one link: a=%d b=%d, want 1 and 1",
			a.MuxSessions(), b.MuxSessions())
	}
}

func TestMuxSessionSharedAcrossLinksBothDirections(t *testing.T) {
	// Many channels, both directions, between one pair of brokers must
	// share a single authenticated session: the accepting side pools the
	// inbound session under the dialer's announced address, so its own
	// dials reuse it instead of opening a second connection.
	a := newMuxBroker(t, nil)
	b := newMuxBroker(t, nil)

	// Establish first contact once so the session exists before the fan
	// out: truly simultaneous first dials from both sides may build a
	// transient duplicate (a simultaneous open), which is still O(peer
	// pairs) but not the steady state this test pins down.
	{
		src := stream.NewPipe(64)
		dst := stream.NewPipe(64)
		tok := a.NewToken()
		if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
			t.Fatal(err)
		}
		go func() {
			src.Write([]byte("first contact"))
			src.CloseWrite()
		}()
		if _, err := io.ReadAll(dst.ReadEnd()); err != nil {
			t.Fatal(err)
		}
	}

	const links = 6
	type flow struct {
		dst     *stream.Pipe
		payload []byte
	}
	flows := make([]flow, links)
	for i := 0; i < links; i++ {
		src := stream.NewPipe(1 << 14)
		dst := stream.NewPipe(1 << 14)
		payload := payloadPattern(50_000 + i*1000)
		flows[i] = flow{dst: dst, payload: payload}
		// Alternate direction: even flows a→b, odd flows b→a.
		srv, cli := a, b
		if i%2 == 1 {
			srv, cli = b, a
		}
		tok := srv.NewToken()
		if _, err := srv.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.DialInbound(srv.Addr(), tok, dst.WriteEnd()); err != nil {
			t.Fatal(err)
		}
		go func(src *stream.Pipe, p []byte) {
			src.Write(p)
			src.CloseWrite()
		}(src, payload)
	}
	for i, f := range flows {
		got, err := io.ReadAll(f.dst.ReadEnd())
		if err != nil || !bytes.Equal(got, f.payload) {
			t.Fatalf("flow %d: got %d bytes (err %v), want %d", i, len(got), err, len(f.payload))
		}
	}
	if a.MuxSessions() != 1 || b.MuxSessions() != 1 {
		t.Fatalf("%d links in both directions used a=%d b=%d sessions, want one shared each",
			links, a.MuxSessions(), b.MuxSessions())
	}
}

func TestMuxResilientLinkSurvivesSessionDeath(t *testing.T) {
	// Fault injection on the accepting broker wraps the shared session
	// conn once, so a drop kills the whole session and every stream on
	// it; resilient links must re-dial (building a fresh session) and
	// RESUME byte-identically.
	a := newResilientBroker(t, testResilience())
	b := newResilientBroker(t, testResilience())
	a.SetPSK([]byte("k"))
	b.SetPSK([]byte("k"))
	inj := faults.New(faults.Config{Seed: 7, Drop: 0.1})
	b.SetFaults(inj)

	src := stream.NewPipe(1 << 16)
	dst := stream.NewPipe(1 << 16)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	payload := payloadPattern(300_000)
	go func() {
		src.Write(payload)
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream corrupted across session deaths: got %d bytes want %d", len(got), len(payload))
	}
	if inj.Injected() == 0 {
		t.Fatal("drop schedule injected nothing — injector not wired into the session conn")
	}
}

func TestMuxAuthMismatchFailsDial(t *testing.T) {
	a := newMuxBroker(t, []byte("right"))
	b := newMuxBroker(t, []byte("wrong"))

	dst := stream.NewPipe(64)
	_, err := b.DialInbound(a.Addr(), "tok", dst.WriteEnd())
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("dial across PSK mismatch: %v, want ErrAuthFailed", err)
	}
}

func TestMuxBrokerCloseReleasesSessions(t *testing.T) {
	a := newMuxBroker(t, nil)
	b := newMuxBroker(t, nil)

	src := stream.NewPipe(1 << 14)
	dst := stream.NewPipe(1 << 14)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	go func() {
		src.Write([]byte("x"))
		src.CloseWrite()
	}()
	io.ReadAll(dst.ReadEnd())

	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for a.MuxSessions() > 0 || b.MuxSessions() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions lingering after Close: a=%d b=%d", a.MuxSessions(), b.MuxSessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
