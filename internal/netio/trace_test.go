package netio

import (
	"bytes"
	"testing"
	"time"

	"dpn/internal/obs"
	"dpn/internal/stream"
)

func TestFrameTraceEncodeDecode(t *testing.T) {
	var buf bytes.Buffer
	if err := sendFrame(&buf, frame{kind: frameTrace, off: 0xdeadbeefcafe}); err != nil {
		t.Fatal(err)
	}
	f, err := recvFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != frameTrace || f.off != 0xdeadbeefcafe {
		t.Fatalf("round trip = %+v", f)
	}
}

// traceScope wires an enabled tracer into a broker and returns it.
func traceScope(b *Broker) *obs.Scope {
	s := obs.NewScope()
	s.SetNode(b.Addr())
	s.Tracer().Enable()
	b.SetObs(s)
	return s
}

// spanEvents filters one tracer's ring down to its span hops.
func spanEvents(s *obs.Scope, detail string) []obs.Event {
	var out []obs.Event
	for _, ev := range s.Tracer().Events() {
		if ev.Type == obs.EvSpan && ev.Detail == detail {
			out = append(out, ev)
		}
	}
	return out
}

// A trace mark set on the source pipe must cross the link: the sender
// emits a TRACE frame (recording wire-out), the receiver records
// wire-in with the same ID and re-marks the destination pipe.
func TestTraceMarkRidesLink(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	sa, sb := traceScope(a), traceScope(b)

	src := stream.NewPipe(64)
	dst := stream.NewPipe(64)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}

	const id = 0x51515151
	src.MarkTrace(id)
	if _, err := src.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := dst.Read(buf); err != nil {
		t.Fatal(err)
	}
	// The TRACE frame precedes its DATA frame on the wire, so once the
	// payload is readable the mark has landed.
	if got := dst.TakeTraceMark(); got != id {
		t.Fatalf("destination mark = %#x, want %#x", got, id)
	}

	outs := spanEvents(sa, "wire-out")
	ins := spanEvents(sb, "wire-in")
	if len(outs) != 1 || len(ins) != 1 {
		t.Fatalf("spans: %d wire-out, %d wire-in (want 1/1)", len(outs), len(ins))
	}
	if outs[0].Arg != int64(uint64(id)) || ins[0].Arg != outs[0].Arg {
		t.Fatalf("span IDs: out=%d in=%d", outs[0].Arg, ins[0].Arg)
	}
	if outs[0].Name != tok || ins[0].Name != tok {
		t.Fatalf("span subjects: out=%q in=%q, want token %q", outs[0].Name, ins[0].Name, tok)
	}
	src.CloseWrite()
}

// Broker-level sampling marks traffic with no cooperation from the
// writer: every Nth DATA frame carries a fresh trace ID.
func TestTraceSamplingAuto(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	sa, sb := traceScope(a), traceScope(b)
	a.SetTraceSampling(1)

	src := stream.NewPipe(64)
	dst := stream.NewPipe(64)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write([]byte("auto")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := dst.Read(buf); err != nil {
		t.Fatal(err)
	}
	if got := dst.TakeTraceMark(); got == 0 {
		t.Fatal("sampled frame did not mark the destination pipe")
	}
	if len(spanEvents(sa, "wire-out")) == 0 || len(spanEvents(sb, "wire-in")) == 0 {
		t.Fatal("sampled frame recorded no span events")
	}
	src.CloseWrite()
}

// With sampling off and no marks, the wire must carry zero TRACE
// frames — the tracing plane is free when disabled.
func TestNoTraceFramesWhenDisabled(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	sa, sb := traceScope(a), traceScope(b)

	src := stream.NewPipe(64)
	dst := stream.NewPipe(64)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := src.Write([]byte("quiet")); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64)
	deadline := time.Now().Add(2 * time.Second)
	read := 0
	for read < 50 && time.Now().Before(deadline) {
		n, err := dst.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		read += n
	}
	if dst.TakeTraceMark() != 0 {
		t.Fatal("unexpected trace mark")
	}
	if n := len(spanEvents(sa, "wire-out")) + len(spanEvents(sb, "wire-in")); n != 0 {
		t.Fatalf("%d span events with tracing disabled", n)
	}
	src.CloseWrite()
}
