package conduit

import (
	"bytes"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/faults"
	"dpn/internal/netio"
	"dpn/internal/obs"
	"dpn/internal/stream"
	"dpn/internal/wal"
)

// durPattern returns n deterministic non-repeating bytes — the oracle
// stream both incarnations of a "process" produce.
func durPattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>9)
	}
	return p
}

func durBroker(t *testing.T, r netio.Resilience) *netio.Broker {
	t.Helper()
	b, err := netio.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.SetResilience(r)
	t.Cleanup(func() { b.Close() })
	return b
}

// patientRes keeps a surviving endpoint waiting out the peer's death
// and restart; hastyRes makes the dying endpoint degrade quickly.
func patientRes() netio.Resilience {
	return netio.Resilience{
		HeartbeatEvery: 20 * time.Millisecond,
		MissDeadline:   200 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       50 * time.Millisecond,
		LinkDeadline:   15 * time.Second,
		Seed:           1,
	}
}

func hastyRes() netio.Resilience {
	r := patientRes()
	r.LinkDeadline = 400 * time.Millisecond
	return r
}

// countingWriter tallies bytes written through it, so tests can wait
// for the consumer to cross a progress mark.
type countingWriter struct {
	n  atomic.Int64
	bw *bytes.Buffer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.bw.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func waitAtLeast(t *testing.T, n *atomic.Int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s: %d/%d bytes", what, n.Load(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDurableSenderRestartByteIdentical kills the sending side of a
// durable binding mid-stream (permanent injected partition, quick
// degrade — the in-process stand-in for SIGKILL, since every byte the
// receiver saw was already fsynced at the sender) and restarts it as a
// fresh process would: new broker, same journal dir, a deterministic
// source re-producing the stream from offset zero. The receiver must
// observe the full stream exactly once, byte-identical.
func TestDurableSenderRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	pat := durPattern(300 << 10)
	const killAfter = 60 << 10
	scope := obs.NewScope()

	// Receiver: patient, serving the rendezvous on a stable token.
	recvB := durBroker(t, patientRes())
	dst := stream.NewPipe(64 << 10)
	if _, err := (Mux{Broker: recvB}).BindInbound(Endpoint{Token: "dur-restart"}, dst.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	cw := &countingWriter{bw: &bytes.Buffer{}}
	recvDone := make(chan error, 1)
	go func() {
		_, err := io.Copy(cw, dst.ReadEnd())
		recvDone <- err
	}()

	// Sender incarnation 1: hasty, chaos-wrapped so a permanent
	// partition can sever it deterministically.
	sndB1 := durBroker(t, hastyRes())
	inj := faults.New(faults.Config{Seed: 7})
	sndB1.SetFaults(inj)
	d1 := Durable{
		Inner: Mux{Broker: sndB1},
		Dir:   dir,
		Opt:   wal.Options{SegmentBytes: 16 << 10},
		Obs:   scope,
	}
	src1 := stream.NewPipe(32 << 10)
	l1, err := d1.BindOutbound(Endpoint{Addr: recvB.Addr(), Token: "dur-restart"}, src1.ReadEnd(), 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Incarnation 1 never finishes its stream: it will be killed.
		for off := 0; off < len(pat); off += 4096 {
			end := off + 4096
			if end > len(pat) {
				end = len(pat)
			}
			if _, err := src1.Write(pat[off:end]); err != nil {
				return // killed mid-stream, as intended
			}
		}
	}()

	waitAtLeast(t, &cw.n, killAfter, "pre-kill delivery")
	inj.PartitionNow(0) // kill -9: the conn dies and never heals
	if err := l1.Wait(); err == nil {
		t.Fatal("killed sender link reported a clean close")
	}
	src1.CloseRead() // reap the incarnation's producer

	// Sender incarnation 2: same journal dir, fresh broker, a fresh
	// deterministic source re-producing the stream from zero.
	sndB2 := durBroker(t, patientRes())
	d2 := Durable{
		Inner: Mux{Broker: sndB2},
		Dir:   dir,
		Opt:   wal.Options{SegmentBytes: 16 << 10},
		Obs:   scope,
	}
	src2 := stream.NewPipe(32 << 10)
	go func() {
		for off := 0; off < len(pat); off += 4096 {
			end := off + 4096
			if end > len(pat) {
				end = len(pat)
			}
			if _, err := src2.Write(pat[off:end]); err != nil {
				return
			}
		}
		src2.CloseWrite()
	}()
	l2, err := d2.BindOutbound(Endpoint{Addr: recvB.Addr(), Token: "dur-restart"}, src2.ReadEnd(), 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Wait(); err != nil {
		t.Fatalf("restarted sender link: %v", err)
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("receiver drain: %v", err)
	}
	if !bytes.Equal(cw.bw.Bytes(), pat) {
		t.Fatalf("stream not byte-identical after sender restart: got %d bytes, want %d", cw.bw.Len(), len(pat))
	}

	reg := scope.Registry()
	if v := reg.Counter("dpn_wal_appended_bytes_total", obs.L("dir", "sink")).Value(); v < int64(len(pat)) {
		t.Fatalf("dpn_wal_appended_bytes_total = %d, want >= %d", v, len(pat))
	}
	if v := reg.Counter("dpn_wal_replayed_bytes_total", obs.L("dir", "sink")).Value(); v <= 0 {
		t.Fatalf("dpn_wal_replayed_bytes_total = %d, want > 0 (restart must replay the journal)", v)
	}
	if v := reg.Counter("dpn_wal_truncated_bytes_total", obs.L("dir", "sink")).Value(); v <= 0 {
		t.Fatalf("dpn_wal_truncated_bytes_total = %d, want > 0 (acks must release segments)", v)
	}
}

// TestDurableReceiverRestartReplaysJournal kills the receiving side of
// a durable binding mid-stream and restarts it against the same
// journal: the fresh local consumer (re-running from zero) must see the
// WHOLE stream — the journaled prefix replayed locally, the tail
// resumed from the surviving sender — byte-identical and exactly once.
func TestDurableReceiverRestartReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	pat := durPattern(300 << 10)
	const killAfter = 60 << 10

	// Sender: patient, serving on a stable token so a restarted
	// receiver can find it again. The producer stalls at the halfway
	// mark until the kill has landed, so the stream cannot complete
	// cleanly before the receiver dies.
	sndB := durBroker(t, patientRes())
	src := stream.NewPipe(32 << 10)
	l, err := (Mux{Broker: sndB}).BindOutbound(Endpoint{Token: "dur-recv"}, src.ReadEnd(), 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	go func() {
		half := len(pat) / 2
		write := func(lo, hi int) bool {
			for off := lo; off < hi; off += 4096 {
				end := off + 4096
				if end > hi {
					end = hi
				}
				if _, err := src.Write(pat[off:end]); err != nil {
					return false
				}
			}
			return true
		}
		if !write(0, half) {
			return
		}
		<-gate
		if write(half, len(pat)) {
			src.CloseWrite()
		}
	}()

	// Receiver incarnation 1: hasty, chaos-severable, durable.
	recvB1 := durBroker(t, hastyRes())
	inj := faults.New(faults.Config{Seed: 9})
	recvB1.SetFaults(inj)
	d1 := Durable{Inner: Mux{Broker: recvB1}, Dir: dir, Opt: wal.Options{SegmentBytes: 16 << 10}}
	dst1 := stream.NewPipe(64 << 10)
	l1, err := d1.BindInbound(Endpoint{Addr: sndB.Addr(), Token: "dur-recv"}, dst1.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	// Consumer 1 drains until the link degrade closes its pipe — it
	// must keep consuming or the inbound session would wedge in
	// dst.Write on a full pipe instead of noticing the dead conn.
	var consumed1 atomic.Int64
	go func() {
		buf := make([]byte, 4096)
		r := dst1.ReadEnd()
		for {
			n, err := r.Read(buf)
			consumed1.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	waitAtLeast(t, &consumed1, killAfter, "pre-kill consumption")
	inj.PartitionNow(0)
	close(gate) // the producer may finish now; the kill has landed
	l1.Wait()   // degrade: dst closed, journal synced and closed
	dst1.CloseRead()

	// Receiver incarnation 2: same journal dir, fresh broker and pipe,
	// fresh consumer reading from offset zero.
	recvB2 := durBroker(t, patientRes())
	d2 := Durable{Inner: Mux{Broker: recvB2}, Dir: dir, Opt: wal.Options{SegmentBytes: 16 << 10}}
	dst2 := stream.NewPipe(64 << 10)
	l2, err := d2.BindInbound(Endpoint{Addr: sndB.Addr(), Token: "dur-recv"}, dst2.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(dst2.ReadEnd())
	if err != nil {
		t.Fatalf("restarted consumer drain: %v", err)
	}
	if !bytes.Equal(got, pat) {
		t.Fatalf("restarted consumer stream diverged: got %d bytes, want %d", len(got), len(pat))
	}
	if err := l2.Wait(); err != nil {
		t.Fatalf("restarted receiver link: %v", err)
	}
	if err := l.Wait(); err != nil {
		t.Fatalf("sender link: %v", err)
	}
}

func TestJournalDirStableAndSanitized(t *testing.T) {
	a := journalDir("/tmp/j", "out", "kr/scenario:1/seed=42")
	b := journalDir("/tmp/j", "out", "kr/scenario:1/seed=42")
	if a != b {
		t.Fatalf("journalDir not stable: %q vs %q", a, b)
	}
	if strings.ContainsAny(strings.TrimPrefix(a, "/tmp/j/out/"), "/:=") {
		t.Fatalf("journalDir leaked unsafe characters: %q", a)
	}
	if c := journalDir("/tmp/j", "out", "kr/scenario:1/seed=43"); c == a {
		t.Fatalf("distinct tokens mapped to one journal dir: %q", c)
	}
	if in := journalDir("/tmp/j", "in", "kr/scenario:1/seed=42"); in == a {
		t.Fatal("in/out journals must not share a dir")
	}
}

func TestDurableString(t *testing.T) {
	d := Durable{Inner: Mux{Broker: durBroker(t, patientRes())}, Dir: t.TempDir()}
	if d.String() != "durable(mux)" {
		t.Fatalf("String() = %q", d.String())
	}
}

// TestDurableJournalBoundedWithoutPolicy pins what one link protocol
// gives the durable binding for free: ACK offsets flow on every link,
// so the outbound journal is truncated behind the receiver whether or
// not the broker has a retry policy. (While policy selected the
// protocol, a Durable binding on a broker without one never truncated:
// its journal grew with the stream.) 64 MiB pass through 1 MiB
// segments; the segment count is sampled as the stream flows and must
// stay a small constant.
func TestDurableJournalBoundedWithoutPolicy(t *testing.T) {
	const total, segment, maxSegments = 64 << 20, 1 << 20, 8
	dir := t.TempDir()
	a, b := durBroker(t, netio.Resilience{}), durBroker(t, netio.Resilience{})
	dur := Durable{Inner: Mux{Broker: a}, Dir: dir, Opt: wal.Options{SegmentBytes: segment, NoSync: true}}

	src := stream.NewPipe(256 << 10)
	dst := stream.NewPipe(256 << 10)
	ep := Endpoint{Token: "dur-bounded"}
	out, err := dur.BindOutbound(ep, src.ReadEnd(), 0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := (Mux{Broker: b}).BindInbound(Endpoint{Addr: a.Addr(), Token: ep.Token}, dst.WriteEnd())
	if err != nil {
		t.Fatal(err)
	}
	block := durPattern(1 << 20)
	sent := crc32.NewIEEE()
	for n := 0; n < total; n += len(block) {
		sent.Write(block)
	}
	go func() {
		for n := 0; n < total; n += len(block) {
			if _, err := src.Write(block); err != nil {
				return
			}
		}
		src.CloseWrite()
	}()

	journal := journalDir(dir, "out", ep.Token)
	got := crc32.NewIEEE()
	buf := make([]byte, 1<<20)
	peak, n := 0, 0
	for {
		k, err := dst.ReadEnd().Read(buf)
		got.Write(buf[:k])
		if n += k; n%(4<<20) < k { // every 4 MiB or so
			segs, gerr := filepath.Glob(filepath.Join(journal, "*.seg"))
			if gerr != nil {
				t.Fatal(gerr)
			}
			peak = max(peak, len(segs))
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if n != total || got.Sum32() != sent.Sum32() {
		t.Fatalf("received %d bytes (crc %08x), sent %d (crc %08x)", n, got.Sum32(), total, sent.Sum32())
	}
	if err := waitLink(t, in, "inbound"); err != nil {
		t.Fatal(err)
	}
	if err := waitLink(t, out, "outbound"); err != nil {
		t.Fatal(err)
	}
	if peak == 0 {
		if _, err := os.Stat(journal); err != nil {
			t.Fatalf("journal directory: %v", err)
		}
		t.Fatal("never saw a journal segment: the stream did not go through the WAL")
	}
	if peak > maxSegments {
		t.Fatalf("journal peaked at %d segments of %d MiB over a %d MiB stream, want at most %d: acknowledged segments are not being truncated",
			peak, segment>>20, total>>20, maxSegments)
	}
}

// TestDurableMoveWithFullReaderBuffer is netio's
// TestMoveWithFullReaderBuffer with the moving reader's inbound link
// bound through a journal: the link's delivery is parked in the
// journal sink's write into a full buffer that nobody reads, and Move
// must still return. It does because the journal is a netio.Sink and
// so passes Unbound to the buffer; a journal that dropped it left the
// delivery, and Move, parked for good.
func TestDurableMoveWithFullReaderBuffer(t *testing.T) {
	a := durBroker(t, netio.Resilience{})
	b := durBroker(t, netio.Resilience{})
	c := durBroker(t, netio.Resilience{})

	srcA := stream.NewPipe(1 << 16)
	dstB := stream.NewPipe(256) // nobody reads it: full after the first frame
	tok1 := a.NewToken()
	if _, err := (Mux{Broker: a}).BindOutbound(Endpoint{Token: tok1}, srcA.ReadEnd(), 4096); err != nil {
		t.Fatal(err)
	}
	dur := Durable{Inner: Mux{Broker: b}, Dir: t.TempDir(), Opt: wal.Options{NoSync: true}}
	lB, err := dur.BindInbound(Endpoint{Addr: a.Addr(), Token: tok1}, dstB.WriteEnd())
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
	for dstB.Len() < dstB.Cap() { // the link is now (about to be) parked on a full buffer
		time.Sleep(time.Millisecond)
	}

	tok2 := c.NewToken()
	dstC := stream.NewPipe(1 << 16)
	if _, err := (Mux{Broker: c}).BindInbound(Endpoint{Token: tok2}, dstC.WriteEnd()); err != nil {
		t.Fatal(err)
	}
	moved := make(chan error, 1)
	go func() { moved <- lB.Move(c.Addr(), tok2) }()
	select {
	case err := <-moved:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Move never returned: the journaled delivery parked on the full buffer")
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
