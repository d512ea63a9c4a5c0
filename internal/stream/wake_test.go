package stream

import (
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// wakePending is Waits' pending result.
func wakePending(p *Pipe) bool {
	pending, _, _, _ := p.Waits()
	return pending
}

func TestWakePendingIdlePipe(t *testing.T) {
	p := NewPipe(4)
	if wakePending(p) {
		t.Fatal("idle pipe reports pending wakeup")
	}
	p.Write([]byte{1})
	if wakePending(p) {
		t.Fatal("no blocked parties, nothing pending")
	}
}

func TestWakePendingBlockedReaderGetsData(t *testing.T) {
	p := NewPipe(4)
	go p.Read(make([]byte, 1))
	waitFor(t, "reader to block", func() bool { return p.BlockedReaders() == 1 })
	if wakePending(p) {
		t.Fatal("blocked reader on empty pipe is a genuine block")
	}
	// Data arrives: until the reader is rescheduled, the wakeup is
	// pending. (The reader may already have consumed it, in which case
	// BlockedReaders drops to 0 — both states are consistent.)
	p.Write([]byte{1})
	waitFor(t, "reader wake", func() bool {
		return p.BlockedReaders() == 0 || wakePending(p)
	})
}

func TestWakePendingBlockedWriterGetsSpace(t *testing.T) {
	p := NewPipe(1)
	p.Write([]byte{1})
	go p.Write([]byte{2})
	waitFor(t, "writer to block", func() bool { return p.BlockedWriters() == 1 })
	if wakePending(p) {
		t.Fatal("blocked writer on full pipe is a genuine block")
	}
	p.Read(make([]byte, 1))
	waitFor(t, "writer wake", func() bool {
		return p.BlockedWriters() == 0 || wakePending(p)
	})
}

func TestWakePendingOnClose(t *testing.T) {
	p := NewPipe(4)
	go p.Read(make([]byte, 1))
	waitFor(t, "reader to block", func() bool { return p.BlockedReaders() == 1 })
	p.CloseWrite()
	// Until the reader observes EOF, the wakeup is pending.
	waitFor(t, "reader EOF wake", func() bool {
		return p.BlockedReaders() == 0 || wakePending(p)
	})
}

// A process parked on a pipe whose other side a link drives waits on
// another node; a party parked on the linked side is the link itself.
func TestWaitsOnLink(t *testing.T) {
	onLink := func(p *Pipe) bool {
		_, _, _, on := p.Waits()
		return on
	}
	fed := NewPipe(4)
	fed.Link(true) // a link writes; a process reads
	go fed.Read(make([]byte, 1))
	waitFor(t, "reader to block", func() bool { return fed.BlockedReaders() == 1 })
	if !onLink(fed) {
		t.Fatal("reader parked on a link-fed pipe is not reported")
	}
	fed.CloseWrite()

	drained := NewPipe(1)
	drained.Link(false) // a process writes; a link reads
	drained.Write([]byte{1})
	go drained.Write([]byte{2})
	waitFor(t, "writer to block", func() bool { return drained.BlockedWriters() == 1 })
	if !onLink(drained) {
		t.Fatal("writer parked on a link-drained pipe is not reported")
	}
	drained.CloseRead()

	own := NewPipe(4)
	own.Link(false) // the link is the reader, and it is the one parked
	go own.Read(make([]byte, 1))
	waitFor(t, "link to block", func() bool { return own.BlockedReaders() == 1 })
	if onLink(own) {
		t.Fatal("the link parked on its own side is reported as a process")
	}
	own.CloseWrite()
}
