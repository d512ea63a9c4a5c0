package netio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"dpn/internal/stream"
	"dpn/internal/token"
)

// beOf renders vs as the channel's raw big-endian byte stream, the
// exact bytes the inbound pipe must end up containing.
func beOf(vs []int64) []byte {
	b := make([]byte, len(vs)*8)
	for i, v := range vs {
		binary.BigEndian.PutUint64(b[i*8:], uint64(v))
	}
	return b
}

// linkPair wires src -> a =tcp=> b -> dst and returns the inbound
// handle for Wait.
func linkPair(t *testing.T, a, b *Broker, src *stream.Pipe, dst *stream.Pipe) *Handle {
	t.Helper()
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	h, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCompressedLinkRoundTrip pushes a monotone int64 stream through a
// real TCP link and requires byte identity, engaged DATA-C frames, and
// coherent logical/wire accounting.
func TestCompressedLinkRoundTrip(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	src := stream.NewPipe(1 << 16)
	dst := stream.NewPipe(1 << 16)
	h := linkPair(t, a, b, src, dst)

	vs := make([]int64, 1<<15)
	for i := range vs {
		vs[i] = int64(i) * 7
	}
	go func() {
		w := token.NewWriter(src.WriteEnd())
		w.WriteInt64s(vs)
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil {
		t.Fatal(err)
	}
	if want := beOf(vs); !bytes.Equal(got, want) {
		t.Fatalf("stream diverged: %d bytes out, want %d", len(got), len(want))
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	ins := a.ins.Load()
	if ins.framesOut[frameDataC].Value() == 0 {
		t.Fatal("no DATA-C frames left the sender — compression never engaged")
	}
	logical, wire := ins.logicalOut.Value(), ins.wireOut.Value()
	if logical != int64(len(vs)*8) {
		t.Fatalf("logical bytes %d, want %d", logical, len(vs)*8)
	}
	if wire >= logical {
		t.Fatalf("wire bytes %d did not shrink below logical %d", wire, logical)
	}
	if a.BytesOut() != logical {
		t.Fatalf("BytesOut %d must stay logical (%d)", a.BytesOut(), logical)
	}
	if ratio := ins.compRatio.Value(); ratio < 1000 {
		t.Fatalf("compressed ratio gauge %d permille, want > 1000", ratio)
	}
	rins := b.ins.Load()
	if rins.logicalIn.Value() != logical || rins.wireIn.Value() != wire {
		t.Fatalf("receiver accounting (%d, %d) disagrees with sender (%d, %d)",
			rins.logicalIn.Value(), rins.wireIn.Value(), logical, wire)
	}
}

// TestCompressionDisabled proves SetCompression(false) restores the
// pre-compression wire byte-for-byte: only plain DATA frames, wire
// bytes equal to logical bytes.
func TestCompressionDisabled(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	a.SetCompression(false)
	src := stream.NewPipe(1 << 16)
	dst := stream.NewPipe(1 << 16)
	h := linkPair(t, a, b, src, dst)

	vs := make([]int64, 1<<14)
	for i := range vs {
		vs[i] = int64(i)
	}
	go func() {
		w := token.NewWriter(src.WriteEnd())
		w.WriteInt64s(vs)
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil || !bytes.Equal(got, beOf(vs)) {
		t.Fatalf("stream diverged: %v", err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	ins := a.ins.Load()
	if n := ins.framesOut[frameDataC].Value(); n != 0 {
		t.Fatalf("%d DATA-C frames with compression off", n)
	}
	if ins.wireOut.Value() != ins.logicalOut.Value() {
		t.Fatalf("wire %d != logical %d on an uncompressed link",
			ins.wireOut.Value(), ins.logicalOut.Value())
	}
}

// TestIncompressibleStreamShipsRaw feeds full-width random tokens: the
// trial must refuse every chunk and the link must fall back to plain
// DATA frames with zero expansion.
func TestIncompressibleStreamShipsRaw(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	src := stream.NewPipe(1 << 16)
	dst := stream.NewPipe(1 << 16)
	h := linkPair(t, a, b, src, dst)

	rng := rand.New(rand.NewSource(42))
	vs := make([]int64, 1<<14)
	for i := range vs {
		vs[i] = int64(rng.Uint64())
	}
	go func() {
		w := token.NewWriter(src.WriteEnd())
		w.WriteInt64s(vs)
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil || !bytes.Equal(got, beOf(vs)) {
		t.Fatalf("stream diverged: %v", err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	ins := a.ins.Load()
	if n := ins.framesOut[frameDataC].Value(); n != 0 {
		t.Fatalf("%d DATA-C frames on an incompressible stream", n)
	}
	if ins.wireOut.Value() != ins.logicalOut.Value() {
		t.Fatalf("raw fallback expanded the wire: %d vs %d",
			ins.wireOut.Value(), ins.logicalOut.Value())
	}
}

// TestFloat64ShapeCompresses exercises the float trial through the
// WriteFloat64s shape hint.
func TestFloat64ShapeCompresses(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	src := stream.NewPipe(1 << 16)
	dst := stream.NewPipe(1 << 16)
	h := linkPair(t, a, b, src, dst)

	vs := make([]float64, 1<<14)
	for i := range vs {
		vs[i] = float64(i) * 0.25
	}
	go func() {
		w := token.NewWriter(src.WriteEnd())
		w.WriteFloat64s(vs)
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	r := token.NewReader(bytes.NewReader(got))
	for i, want := range vs {
		v, err := r.ReadFloat64()
		if err != nil || v != want {
			t.Fatalf("element %d: got %v (%v), want %v", i, v, err, want)
		}
	}
	ins := a.ins.Load()
	if ins.framesOut[frameDataC].Value() == 0 {
		t.Fatal("float stream never engaged compression")
	}
	if ins.wireOut.Value() >= ins.logicalOut.Value() {
		t.Fatal("float stream did not shrink on the wire")
	}
}

// TestCorruptCompressedFrameFailsLink hand-delivers a DATA-C frame
// whose block is garbage: the receiving link must fail with
// ErrBadFrame and poison the local reader, exactly like an unknown
// frame kind.
func TestCorruptCompressedFrameFailsLink(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	dst := stream.NewPipe(1 << 12)
	tok := a.NewToken()
	h, err := a.ServeInbound(tok, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRawSender(t, b, a.Addr(), tok)
	defer conn.Close()
	// 0x90 is no valid encoding tag, so the strict decoder rejects it.
	if err := sendFrame(conn, frame{kind: frameDataC, payload: []byte{0x90, 0x01, 0xAA}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("link finished with %v, want ErrBadFrame", err)
	}
	if _, err := io.ReadAll(dst.ReadEnd()); err == nil {
		// The pipe was closed by the failing link; ReadAll returns the
		// close error or no bytes — either way no data leaked through.
	}
}
