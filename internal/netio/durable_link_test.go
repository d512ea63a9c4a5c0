package netio

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/stream"
	"dpn/internal/token/blocks"
)

// mkMonotone stages one outbound chunk of n monotone big-endian int64s
// in a pooled buffer with header headroom — maximally compressible, so
// the DATA-C path is guaranteed to engage.
func mkMonotone(n int, seed int64) outChunk {
	bp := getChunkBuf()
	data := (*bp)[frameHdrLen : frameHdrLen+n*8]
	v := seed
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(data[i*8:], uint64(v))
		v += 3
	}
	return outChunk{data: data, start: frameHdrLen, orig: bp}
}

// TestRebaseMidChunkCompressedReplay pins down the replayQueue
// drop/trim compression audit: an ack or rebase landing mid-chunk
// (and therefore mid-sealed-block on the wire) must never make the
// receiver resume decode inside a sealed block. Blocks are sealed per
// frame at write time, so the replayed remainder is re-trialed — and a
// non-8-aligned remainder ships raw. The receiver decodes every frame
// strictly and must never see ErrBadFrame.
func TestRebaseMidChunkCompressedReplay(t *testing.T) {
	b := newTestBroker(t)
	b.SetResilience(Resilience{
		HeartbeatEvery: time.Second,
		MissDeadline:   10 * time.Second,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       50 * time.Millisecond,
		LinkDeadline:   10 * time.Second,
		Seed:           1,
	})
	h := b.newLink(stream.NewPipe(1).ReadEnd(), nil, 0, true, "", "tok")
	if !h.comp {
		t.Fatal("compression should default on")
	}
	o := &h.core

	sender, receiver := net.Pipe()
	defer sender.Close()
	h.w = frameWriter{w: sender}

	type recvResult struct {
		got  []byte
		err  error
		comp int // DATA-C frames seen
	}
	resCh := make(chan recvResult, 1)
	go func() {
		var r recvResult
		for {
			f, err := recvFrame(receiver)
			if err != nil {
				resCh <- r // EOF/closed pipe ends the collection
				return
			}
			switch f.kind {
			case frameData:
				r.got = append(r.got, f.payload...)
			case frameDataC:
				out, derr := blocks.DecodeBE(nil, f.payload, coalesceMax)
				if derr != nil {
					r.err = ErrBadFrame
					resCh <- r
					return
				}
				r.comp++
				r.got = append(r.got, out...)
			default:
				r.err = errors.New("unexpected frame kind")
				resCh <- r
				return
			}
		}
	}()

	var want []byte
	send := func(c outChunk) {
		t.Helper()
		if h.send(c, false, ""); h.w.err != nil {
			t.Fatalf("send: %v", h.w.err)
		}
		if o.unacked.push(o.sendOff, c, o.frameMax) {
			c.release()
		}
		o.sendOff += uint64(len(c.data))
	}

	// A compressible chunk goes out sealed as one DATA-C block.
	first := mkMonotone(512, 5)
	want = append(want, first.data...)
	send(first)

	// The receiver acks PART of it, mid-block and non-8-aligned: the
	// retained remainder must not pretend it is still a sealed block.
	const midAck = 1003
	o.acked(midAck, nil)
	if o.unacked.n != 1 || len(o.unacked.at(0).c.data)%8 == 0 {
		t.Fatalf("expected one non-aligned remainder chunk, have %d chunks", o.unacked.n)
	}

	// RESUME replay of the remainder (what the RESUME exchange does).
	for k := 0; k < o.unacked.n; k++ {
		if h.send(o.unacked.at(k).c, false, ""); h.w.err != nil {
			t.Fatalf("replay send: %v", h.w.err)
		}
	}
	want = append(want, first.data[midAck:]...)

	// MOVING-style rebase to offset zero, then a fresh compressible
	// chunk: decode must restart cleanly at the new epoch.
	o.unacked.drop()
	o.sendOff, o.ackOff = 0, 0
	second := mkMonotone(512, 999)
	want = append(want, second.data...)
	send(second)
	o.unacked.drop()

	sender.Close()
	r := <-resCh
	if r.err != nil {
		t.Fatalf("receiver decode failed: %v", r.err)
	}
	if r.comp == 0 {
		t.Fatal("no DATA-C frame observed; the test did not exercise the compressed path")
	}
	if string(r.got) != string(want) {
		t.Fatalf("stream diverged: got %d bytes, want %d", len(r.got), len(want))
	}
}

// TestBrokerCloseInterruptsReconnectBackoff pins the Broker.Close
// regression: a link mid-backoff in the reconnect dial loop (e.g.
// after a failed RESUME resync) must fail fast with ErrBrokerClosed
// when its broker shuts down, not keep dialing until LinkDeadline.
func TestBrokerCloseInterruptsReconnectBackoff(t *testing.T) {
	b := newTestBroker(t)
	res := Resilience{
		HeartbeatEvery: 20 * time.Millisecond,
		MissDeadline:   200 * time.Millisecond,
		RetryBase:      40 * time.Millisecond,
		RetryMax:       2 * time.Second,
		LinkDeadline:   time.Hour, // the old behavior would retry this long
		Seed:           1,
	}
	b.SetResilience(res)

	// A dead address that refuses connections instantly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		_, err := b.reconnect(res, false, deadAddr, "tok", time.Now())
		done <- err
	}()
	// Let a few dial attempts fail so the loop is inside a backoff sleep.
	time.Sleep(150 * time.Millisecond)
	start := time.Now()
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrBrokerClosed) {
			t.Fatalf("reconnect returned %v, want ErrBrokerClosed", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("reconnect took %v to observe Close", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reconnect still retrying after Broker.Close")
	}
}

// ackTap is a byte source with the journaling source's Acked tap: it
// records the highest offset the link reported confirmed.
type ackTap struct {
	Source
	acked atomic.Uint64
}

func (a *ackTap) Acked(off uint64) { a.acked.Store(off) }

// TestAckedOffsetsFlowWithoutPolicy pins the link half of "durable
// follows for free": the receiver-confirmed offset reaches a journaling
// source on every link, retry policy or none, and ends at the stream's
// length (the conduit package's TestDurableJournalBoundedWithoutPolicy
// shows the WAL truncating on it).
func TestAckedOffsetsFlowWithoutPolicy(t *testing.T) {
	a := newTestBroker(t)
	a.SetResilience(Resilience{})
	b := newTestBroker(t)
	src := stream.NewPipe(1 << 16)
	dst := stream.NewPipe(1 << 16)
	tap := &ackTap{Source: src.ReadEnd()}
	tok := a.NewToken()
	hOut, err := a.ServeOutbound(tok, tap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	payload := payloadPattern(1 << 20)
	go func() {
		src.Write(payload)
		src.CloseWrite()
	}()
	if n, err := io.Copy(io.Discard, dst.ReadEnd()); err != nil || n != int64(len(payload)) {
		t.Fatalf("received %d bytes, %v", n, err)
	}
	if err := hOut.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := tap.acked.Load(); got != uint64(len(payload)) {
		t.Fatalf("source was told %d bytes are confirmed, want all %d", got, len(payload))
	}
}
