package netio

import (
	"bytes"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/stream"
)

// TestReplayQueueSlicesAndReusesItsRing drives the queue by hand: folds
// land in the newest buffer, a mid-entry trim keeps the remainder
// replayable, and draining and refilling reuses the ring instead of
// growing it.
func TestReplayQueueSlicesAndReusesItsRing(t *testing.T) {
	mk := func(fill byte, n int) outChunk {
		bp := getChunkBuf()
		data := (*bp)[frameHdrLen : frameHdrLen+n]
		for i := range data {
			data[i] = fill
		}
		return outChunk{data: data, start: frameHdrLen, orig: bp}
	}
	var q replayQueue
	var off uint64
	push := func(fill byte, n int) {
		if c := mk(fill, n); q.push(off, c, coalesceMax) {
			c.release()
		}
		off += uint64(n)
	}
	push('a', 100)
	push('b', 50) // folds behind 'a'
	if q.n != 1 || !bytes.Equal(q.at(0).c.data, append(bytes.Repeat([]byte{'a'}, 100), bytes.Repeat([]byte{'b'}, 50)...)) {
		t.Fatalf("fold: %d entries, first holds %d bytes", q.n, len(q.at(0).c.data))
	}
	push('c', coalesceMax) // cannot fit behind them: its own entry
	if q.n != 2 || q.at(1).off != 150 {
		t.Fatalf("full-size chunk: %d entries, second at offset %d", q.n, q.at(1).off)
	}
	q.trim(120) // mid-entry, inside the folded 'b' run
	if q.n != 2 || q.at(0).off != 120 || !bytes.Equal(q.at(0).c.data, bytes.Repeat([]byte{'b'}, 30)) {
		t.Fatalf("mid-entry trim left offset %d, %q", q.at(0).off, q.at(0).c.data)
	}
	if q.at(0).c.start < frameHdrLen {
		t.Fatal("trim ate the header headroom")
	}
	q.trim(off)
	if q.n != 0 {
		t.Fatalf("full trim left %d entries", q.n)
	}
	ring := len(q.ring)
	for round := 0; round < 100; round++ {
		push('d', coalesceMax)
		push('e', coalesceMax)
		q.trim(off)
	}
	if len(q.ring) != ring {
		t.Fatalf("ring grew from %d to %d slots under steady push/trim", ring, len(q.ring))
	}
}

// TestLinkRoundTripAllocatesNothing gates the cost of always retaining
// for replay: one steady-state round trip over a session link pair —
// DATA out, delivered, ACK back, the acknowledged bytes trimmed from
// the replay queue — allocates nothing anywhere in the process (frame
// headers, deadlines, queue bookkeeping, pooled buffers included).
func TestLinkRoundTripAllocatesNothing(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)
	src := stream.NewPipe(1 << 16)
	dst := stream.NewPipe(1 << 16)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	out := payloadPattern(4096)
	in := make([]byte, len(out))
	acksIn := a.ins.Load().framesIn[frameAck]
	roundTrip := func() {
		acked := acksIn.Value()
		if _, err := src.Write(out); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(dst.ReadEnd(), in); err != nil {
			t.Fatal(err)
		}
		for acksIn.Value() == acked {
			time.Sleep(10 * time.Microsecond)
		}
	}
	for i := 0; i < 50; i++ { // warm the pools, the ring and the session's staging buffers
		roundTrip()
	}
	if n := testing.AllocsPerRun(500, roundTrip); n != 0 && !raceEnabled {
		t.Fatalf("a steady-state DATA+ACK round trip allocates %v times, want 0", n)
	}
	src.CloseWrite()
}

// TestStalledReceiverRetainsBoundedBuffers is the memory half of the
// same bargain. A producer of 8-byte elements faces a receiver that
// stopped reading: the sender may retain a window of unacknowledged
// bytes, but folded into about window/coalesceMax pooled buffers, not
// one 128 KiB buffer per element (which would be 4 GiB for the default
// window). First the queue alone, where the count is exact; then a
// live link, where what can be observed without racing its goroutines
// is how many buffers the pool had to mint while the sender filled up.
func TestStalledReceiverRetainsBoundedBuffers(t *testing.T) {
	const limit = DefaultWindow/coalesceMax + 2
	var q replayQueue
	for off := uint64(0); off < DefaultWindow; off += 8 {
		bp := getChunkBuf()
		if q.push(off, outChunk{data: (*bp)[frameHdrLen : frameHdrLen+8], start: frameHdrLen, orig: bp}, coalesceMax) {
			putChunkBuf(bp)
		}
	}
	if q.n > limit {
		t.Fatalf("a window of 8-byte chunks pins %d pooled buffers, want at most %d", q.n, limit)
	}
	q.drop()

	var minted atomic.Int64
	mint := chunkPool.New
	chunkPool.New = func() any { minted.Add(1); return mint() }
	defer func() { chunkPool.New = mint }()

	a, b := newTestBroker(t), newTestBroker(t)
	src := stream.NewPipe(8) // every source read is one element
	dst := stream.NewPipe(64)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	go func() {
		var elem [8]byte
		for {
			if _, err := src.Write(elem[:]); err != nil {
				return
			}
		}
	}()
	// The sender stops at the link's credit window, holding tens of
	// thousands of elements by then.
	ins := a.ins.Load()
	waitUntil(t, "sender runs out of credit", func() bool { return ins.creditStalls.Value() > 0 })
	if sent := ins.framesOut[frameData].Value(); sent < 10_000 {
		t.Fatalf("sender stalled after only %d elements", sent)
	}
	// Retained buffers, plus one each for the source reader, the staged
	// chunk and the receiver's two scratch buffers, plus slack for a GC
	// emptying the pool mid-test.
	if n := minted.Load(); n > limit+4+16 && !raceEnabled {
		t.Fatalf("the pool minted %d buffers while a stalled receiver held the sender's window, want about %d", n, limit+4)
	}
	src.CloseRead()
	dst.CloseRead() // the receiving link is parked writing into it
}
