package netio

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"dpn/internal/faults"
	"dpn/internal/stream"
)

// testResilience is a fast configuration for in-process tests: quick
// heartbeats and short deadlines so outages are detected in a few
// hundred milliseconds, with a LinkDeadline long enough to ride out the
// test partitions.
func testResilience() Resilience {
	return Resilience{
		HeartbeatEvery: 20 * time.Millisecond,
		MissDeadline:   200 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       50 * time.Millisecond,
		LinkDeadline:   5 * time.Second,
		Seed:           1,
	}
}

func newResilientBroker(t *testing.T, r Resilience) *Broker {
	t.Helper()
	b := newTestBroker(t)
	b.SetResilience(r)
	return b
}

// payloadPattern builds a deterministic byte stream long enough to
// span several chunks.
func payloadPattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i>>8) ^ byte(i)
	}
	return p
}

func TestResilientLinkPassesCleanTraffic(t *testing.T) {
	a := newResilientBroker(t, testResilience())
	b := newResilientBroker(t, testResilience())

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
	payload := payloadPattern(200_000)
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
}

func TestResilientLinkSurvivesConnectionDrops(t *testing.T) {
	// Inject a per-operation drop probability on the receiving broker:
	// connections die mid-stream over and over, and the RESUME/replay
	// handshake must deliver every byte exactly once anyway.
	a := newResilientBroker(t, testResilience())
	b := newResilientBroker(t, testResilience())
	inj := faults.New(faults.Config{Seed: 11, Drop: 0.15})
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
		t.Fatalf("stream corrupted under drops: got %d bytes want %d", len(got), len(payload))
	}
	if inj.Injected() == 0 {
		t.Fatalf("drop schedule injected nothing — fault wrapper not wired into the link path")
	}
	if a.ins.Load().partitionHeal.Value()+b.ins.Load().partitionHeal.Value() == 0 {
		t.Fatalf("connections were dropped but no reconnect was recorded")
	}
}

func TestResilientLinkHealsStallPartition(t *testing.T) {
	// Stall-mode partition: the session's connection goes silent instead
	// of resetting. The session's keepalive must declare it dead (counted
	// as a heartbeat miss), and the reconnect (blocked by DialError until
	// the window ends) must resume the stream byte-identically.
	inj := faults.New(faults.Config{Seed: 3, Stall: true})
	a := newResilientBroker(t, testResilience())
	b := newResilientBroker(t, testResilience())
	a.SetFaults(inj)
	b.SetFaults(inj)

	src := stream.NewPipe(1 << 14)
	dst := stream.NewPipe(1 << 14)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	payload := payloadPattern(150_000)
	go func() {
		src.Write(payload[:50_000])
		inj.PartitionNow(500 * time.Millisecond)
		src.Write(payload[50_000:])
		src.CloseWrite()
	}()
	done := make(chan struct{})
	var got []byte
	var readErr error
	go func() {
		got, readErr = io.ReadAll(dst.ReadEnd())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("partition never healed: read hung")
	}
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream corrupted across partition: got %d bytes want %d", len(got), len(payload))
	}
	if a.ins.Load().heartbeatMiss.Value()+b.ins.Load().heartbeatMiss.Value() == 0 {
		t.Fatalf("stall partition produced no heartbeat misses")
	}
	if a.ins.Load().partitionHeal.Value()+b.ins.Load().partitionHeal.Value() == 0 {
		t.Fatalf("no partition heal recorded")
	}
}

func TestResilientLinkDegradesOnPermanentPartition(t *testing.T) {
	// A partition that never heals must not hang: both ends degrade
	// within LinkDeadline — the receiver poisons its pipe (cascading
	// close) and the sender's Wait returns.
	res := testResilience()
	res.LinkDeadline = 700 * time.Millisecond
	inj := faults.New(faults.Config{Seed: 5, Stall: true})
	a := newResilientBroker(t, res)
	b := newResilientBroker(t, res)
	a.SetFaults(inj)
	b.SetFaults(inj)

	src := stream.NewPipe(1 << 14)
	dst := stream.NewPipe(1 << 14)
	tok := a.NewToken()
	hOut, err := a.ServeOutbound(tok, src.ReadEnd(), 0)
	if err != nil {
		t.Fatal(err)
	}
	hIn, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write([]byte("before the partition")); err != nil {
		t.Fatal(err)
	}
	// Let the first bytes flow, then cut the network forever.
	deadlineBuf := make([]byte, 20)
	if _, err := io.ReadFull(dst.ReadEnd(), deadlineBuf); err != nil {
		t.Fatal(err)
	}
	inj.PartitionNow(0)
	cut := time.Now()

	waitOrHang := func(name string, h *Handle) {
		t.Helper()
		select {
		case <-h.Done():
		case <-time.After(20 * time.Second):
			t.Fatalf("%s link hung on a permanent partition", name)
		}
	}
	waitOrHang("outbound", hOut)
	waitOrHang("inbound", hIn)
	// The stalled session dies one MissDeadline (plus at most one
	// heartbeat) after the cut and the outage it opens lasts
	// LinkDeadline; half of that again is scheduling slack.
	if took, limit := time.Since(cut), (res.LinkDeadline+res.MissDeadline)*3/2; took > limit {
		t.Fatalf("links degraded %v after the cut, want within LinkDeadline+MissDeadline (limit %v)", took, limit)
	}

	// The receiver's pipe must be poisoned so local readers terminate.
	if _, err := io.ReadAll(dst.ReadEnd()); err != nil && err != io.EOF {
		// EOF or a pipe-closed error both terminate a reader; a hang is
		// the only failure mode, and waitOrHang rules it out.
		t.Logf("reader terminated with %v", err)
	}
	// The sender's source must be poisoned too (writer cascade).
	if _, err := src.Write([]byte("after")); err == nil {
		t.Fatalf("sender source still writable after link degraded")
	}
	if a.ins.Load().linkFailures.Value()+b.ins.Load().linkFailures.Value() == 0 {
		t.Fatalf("no link failure recorded for a permanent partition")
	}
}

func TestResilientDialRoleDegradesWhenPeerEndpointNeverArrives(t *testing.T) {
	// Regression: the peer's broker keeps accepting HELLOs (the dial
	// "succeeds" and the connection is parked as pending) but the peer
	// endpoint itself is gone, so resync never completes. The dial-role
	// reconnect loop must still enforce LinkDeadline — successful dials
	// followed by failed resyncs used to cycle forever without ever
	// degrading, hanging the process network.
	res := testResilience()
	res.MissDeadline = 100 * time.Millisecond
	res.LinkDeadline = 600 * time.Millisecond

	t.Run("outbound", func(t *testing.T) {
		a := newResilientBroker(t, res)
		b := newResilientBroker(t, res)
		src := stream.NewPipe(1 << 12)
		// No ServeInbound on b: its broker parks every connection.
		h, err := a.DialOutbound(b.Addr(), b.NewToken(), src.ReadEnd(), 0)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-h.Done():
		case <-time.After(15 * time.Second):
			t.Fatalf("outbound link never degraded: reconnect cycled past LinkDeadline")
		}
		if err := h.Wait(); err == nil {
			t.Fatalf("degraded link must report an error")
		}
		if _, err := src.Write([]byte("x")); err == nil {
			t.Fatalf("sender source still writable after link degraded")
		}
		if a.ins.Load().linkFailures.Value() == 0 {
			t.Fatalf("no link failure recorded")
		}
	})

	t.Run("inbound", func(t *testing.T) {
		a := newResilientBroker(t, res)
		b := newResilientBroker(t, res)
		dst := stream.NewPipe(1 << 12)
		// No ServeOutbound on b: RESUME is swallowed by a parked stream
		// and never confirmed.
		h, err := a.DialInbound(b.Addr(), b.NewToken(), dst.WriteEnd())
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-h.Done():
		case <-time.After(15 * time.Second):
			t.Fatalf("inbound link never degraded: reconnect cycled past LinkDeadline")
		}
		if err := h.Wait(); err == nil {
			t.Fatalf("degraded link must report an error")
		}
		// The pipe must be poisoned so local readers terminate (EOF or a
		// pipe error both do; a hang is the failure mode).
		readDone := make(chan struct{})
		go func() {
			io.ReadAll(dst.ReadEnd())
			close(readDone)
		}()
		select {
		case <-readDone:
		case <-time.After(5 * time.Second):
			t.Fatalf("receiver pipe not poisoned: local read hung")
		}
		if a.ins.Load().linkFailures.Value() == 0 {
			t.Fatalf("no link failure recorded")
		}
	})
}

func TestResilientDialRetriesUntilServerArrives(t *testing.T) {
	// The initial dial happens while the peer is partitioned; the
	// backoff loop must keep retrying and connect once it heals.
	inj := faults.New(faults.Config{Seed: 9})
	a := newResilientBroker(t, testResilience())
	b := newResilientBroker(t, testResilience())
	b.SetFaults(inj) // b dials out through the injector

	inj.PartitionNow(300 * time.Millisecond)
	src := stream.NewPipe(1 << 12)
	dst := stream.NewPipe(1 << 12)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	h, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd())
	if err != nil {
		t.Fatalf("resilient dial must not fail synchronously: %v", err)
	}
	go func() {
		src.Write([]byte("delivered after retries"))
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil || string(got) != "delivered after retries" {
		t.Fatalf("got %q, %v", got, err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if b.ins.Load().linkRetries.Value() == 0 {
		t.Fatalf("no dial retries recorded")
	}
}

func TestResilientLinkIdleSurvivesMissDeadline(t *testing.T) {
	// An idle channel (source produces nothing for longer than
	// MissDeadline) must NOT be declared dead: the session's PINGs carry
	// liveness in both directions, and the link sets no read deadline of
	// its own.
	res := testResilience()
	a := newResilientBroker(t, res)
	b := newResilientBroker(t, res)

	src := stream.NewPipe(1 << 12)
	dst := stream.NewPipe(1 << 12)
	tok := a.NewToken()
	if _, err := a.ServeOutbound(tok, src.ReadEnd(), 0); err != nil {
		t.Fatal(err)
	}
	h, err := b.DialInbound(a.Addr(), tok, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		src.Write([]byte("early"))
		// Idle for several MissDeadlines.
		time.Sleep(3 * res.MissDeadline)
		src.Write([]byte(" late"))
		src.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil || string(got) != "early late" {
		t.Fatalf("got %q, %v", got, err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if a.ins.Load().partitionHeal.Value()+b.ins.Load().partitionHeal.Value() != 0 {
		t.Fatalf("idle link reconnected %d times — heartbeats not keeping it alive",
			a.ins.Load().partitionHeal.Value()+b.ins.Load().partitionHeal.Value())
	}
}

func TestResilientRedirectAcrossHosts(t *testing.T) {
	// The §4.3 redirection handshake (REDIRECT final frame, BYE
	// confirmation, re-armed rendezvous) must work with resilience
	// enabled end to end: writer A → reader C, writer moves to D.
	res := testResilience()
	a := newResilientBroker(t, res)
	c := newResilientBroker(t, res)
	d := newResilientBroker(t, res)

	srcA := stream.NewPipe(1 << 12)
	dst := stream.NewPipe(1 << 12)
	tok := c.NewToken()
	if _, err := c.ServeInbound(tok, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	hA, err := a.DialOutbound(c.Addr(), tok, srcA.ReadEnd(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srcA.Write([]byte("first leg ")); err != nil {
		t.Fatal(err)
	}
	// Redirect: A announces a new token and finishes; D dials C with it.
	tok2 := c.NewToken()
	if _, err := hA.Redirect(tok2); err != nil {
		t.Fatal(err)
	}
	srcA.CloseWrite()
	if err := hA.Wait(); err != nil {
		t.Fatal(err)
	}
	srcD := stream.NewPipe(1 << 12)
	hD, err := d.DialOutbound(c.Addr(), tok2, srcD.ReadEnd(), 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		srcD.Write([]byte("second leg"))
		srcD.CloseWrite()
	}()
	got, err := io.ReadAll(dst.ReadEnd())
	if err != nil || string(got) != "first leg second leg" {
		t.Fatalf("got %q, %v", got, err)
	}
	if err := hD.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestChaosLinkManySchedules(t *testing.T) {
	// Property-style sweep at the transport level: a spread of seeded
	// fault schedules (drops, short writes, latency, jitter) must all
	// deliver the stream byte-identically.
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short")
	}
	payload := payloadPattern(120_000)
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("seed=%d", trial), func(t *testing.T) {
			t.Parallel()
			cfg := faults.Config{
				Seed:       int64(100 + trial),
				Drop:       0.01 * float64(trial),
				ShortWrite: 0.005 * float64(trial),
				Latency:    time.Duration(trial) * 100 * time.Microsecond,
				Jitter:     500 * time.Microsecond,
			}
			t.Logf("chaos seed %d", cfg.Seed)
			a := newResilientBroker(t, testResilience())
			b := newResilientBroker(t, testResilience())
			a.SetFaults(faults.New(cfg))

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
				src.Write(payload)
				src.CloseWrite()
			}()
			got, err := io.ReadAll(dst.ReadEnd())
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("stream not byte-identical under faults: got %d bytes want %d",
					len(got), len(payload))
			}
		})
	}
}
