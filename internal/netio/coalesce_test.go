package netio

import (
	"bytes"
	"io"
	"testing"

	"dpn/internal/stream"
)

// queuedChunk builds an outChunk over a pooled buffer, as startSource
// would produce it.
func queuedChunk(payload []byte) outChunk {
	bp := getChunkBuf()
	copy((*bp)[frameHdrLen:], payload)
	return outChunk{
		data:  (*bp)[frameHdrLen : frameHdrLen+len(payload)],
		start: frameHdrLen,
		orig:  bp,
	}
}

// TestCoalesceMergesQueuedChunks drives coalesce directly: chunks
// already queued behind the one taken must merge into its buffer
// (bumping the coalesced counter), a chunk that overflows the frame cap
// must park in next, and the merged bytes must stay in order.
func TestCoalesceMergesQueuedChunks(t *testing.T) {
	b := newTestBroker(t)
	h := &Handle{
		b:    b,
		core: linkCore{frameMax: 64},
		// Buffered in the test only, to stage "already queued" chunks
		// deterministically; production keeps this channel unbuffered.
		chunks: make(chan outChunk, 4),
	}
	h.chunks <- queuedChunk([]byte("bbbb"))
	h.chunks <- queuedChunk([]byte("cc"))
	big := bytes.Repeat([]byte{'z'}, 60) // 4+4+2+60 > frameMax
	h.chunks <- queuedChunk(big)

	before := b.ins.Load().framesCoalesced.Value()
	pending := h.coalesce(queuedChunk([]byte("aaaa")))
	if got, want := string(pending.data), "aaaabbbbcc"; got != want {
		t.Fatalf("pending after coalesce = %q, want %q", got, want)
	}
	if h.next.data == nil || !bytes.Equal(h.next.data, big) {
		t.Fatalf("oversized chunk not parked in next: %q", h.next.data)
	}
	if got := b.ins.Load().framesCoalesced.Value() - before; got != 2 {
		t.Fatalf("coalesced counter rose by %d, want 2", got)
	}
	pending.release()
	h.next.release()
}

// TestCoalesceStopsAtBufferEnd checks the merge never writes past the
// pooled buffer: with pending near the end of its backing array, room
// is bounded by the buffer, not just frameMax.
func TestCoalesceStopsAtBufferEnd(t *testing.T) {
	b := newTestBroker(t)
	h := &Handle{
		b:      b,
		core:   linkCore{frameMax: coalesceMax},
		chunks: make(chan outChunk, 1),
	}
	// Simulate a partially-acked chunk: start advanced deep into the
	// buffer, leaving only a little tail room.
	bp := getChunkBuf()
	start := len(*bp) - 8
	copy((*bp)[start:], "abcd")
	h.chunks <- queuedChunk(bytes.Repeat([]byte{'x'}, 16))

	pending := h.coalesce(outChunk{data: (*bp)[start : start+4], start: start, orig: bp})
	if got := string(pending.data); got != "abcd" {
		t.Fatalf("pending grew past its buffer tail: %q", got)
	}
	if got := len(h.next.data); got != 16 {
		t.Fatalf("unfitting chunk should park in next intact; next has %d bytes", got)
	}
	pending.release()
	h.next.release()
}

// TestLinkManySmallWritesBatched streams thousands of tiny writes over
// a real link and checks (a) delivery is byte-identical and (b) the
// wire carried far fewer DATA frames than writes — the pooled reader
// batches whatever the pipe has buffered into each frame.
func TestLinkManySmallWritesBatched(t *testing.T) {
	a := newTestBroker(t)
	b := newTestBroker(t)

	const (
		writes    = 4096
		writeSize = 16
	)
	src := stream.NewPipe(1 << 16)
	dst := stream.NewPipe(1 << 16)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 1<<15); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}

	framesBefore := a.ins.Load().framesOut[frameData].Value()
	want := make([]byte, 0, writes*writeSize)
	go func() {
		buf := make([]byte, writeSize)
		for i := 0; i < writes; i++ {
			for j := range buf {
				buf[j] = byte(i + j)
			}
			if _, err := src.Write(buf); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		src.CloseWrite()
	}()
	for i := 0; i < writes; i++ {
		for j := 0; j < writeSize; j++ {
			want = append(want, byte(i+j))
		}
	}

	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(want))
	}
	frames := a.ins.Load().framesOut[frameData].Value() - framesBefore
	if frames == 0 || frames > writes/4 {
		t.Fatalf("%d writes crossed the wire in %d DATA frames; want batching (1..%d)",
			writes, frames, writes/4)
	}
	t.Logf("%d writes → %d DATA frames", writes, frames)
}
