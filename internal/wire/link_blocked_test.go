package wire

import (
	"bytes"
	"encoding/gob"
	"io"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/deadlock"
	"dpn/internal/proclib"
)

// computingSource writes 0..N-1, taking Pace per element first — a process
// that computes, and is neither blocked nor moving data while it does.
type computingSource struct {
	N    int64
	Pace time.Duration
	Out  *core.WritePort
}

func (s *computingSource) Run(*core.Env) error {
	for i := int64(0); i < s.N; i++ {
		time.Sleep(s.Pace)
		if err := s.Out.Tokens().WriteInt64(i); err != nil {
			return err
		}
	}
	return s.Out.Close()
}

func (s *computingSource) Ports() []io.Closer { return []io.Closer{s.Out} }

// computingSink reads its input to the end, taking Pace per element after
// each read.
type computingSink struct {
	Pace time.Duration
	In   *core.ReadPort
	Got  int64
}

func (s *computingSink) Run(*core.Env) error {
	for {
		if _, err := s.In.Tokens().ReadInt64(); err != nil {
			return err
		}
		s.Got++
		time.Sleep(s.Pace)
	}
}

func (s *computingSink) Ports() []io.Closer { return []io.Closer{s.In} }

func init() { gob.Register(&computingSink{}) }

// sample calls probe every 50 µs until stop is closed, and returns a
// channel closed after the last call.
func sample(stop <-chan struct{}, probe func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			probe()
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	return done
}

// TestLinkIsNotAProcess pins that a transport link parked in a pipe is
// not counted blocked: Blocked() counts processes, and the deadlock
// monitor's test is Blocked() >= Live(). On the writer's node the
// outbound link parks reading an empty pipe while the only process
// computes, and a wake-only monitor there must see nothing to do. On
// the reader's node the inbound link parks writing the full imported
// pipe while the only process computes. (The sink waiting for bytes
// is the other half: see TestLocalMonitorLeavesLinkWaitUndecided.)
func TestLinkIsNotAProcess(t *testing.T) {
	t.Run("writer node", func(t *testing.T) {
		a, b := newTestNode(t), newTestNode(t)
		ch := a.Net.NewChannel("ab", 64)
		src := &computingSource{N: 40, Pace: 5 * time.Millisecond, Out: ch.Writer()}
		sink := &proclib.Collect{In: ch.Reader()}
		if _, err := SpawnImported(b, ship(t, mustExport(t, a, b, sink))); err != nil {
			t.Fatal(err)
		}
		mon := deadlock.New(a.Net, time.Hour) // checks on the quiescence wake only
		mon.Start()
		stop := make(chan struct{})
		var most int64
		sampled := sample(stop, func() { most = max(most, a.Net.Blocked()) })
		a.Net.Spawn(src)
		waitNet(t, a.Net, "writer node")
		close(stop)
		<-sampled
		mon.Stop()
		waitNet(t, b.Net, "reader node")
		if got := most; got > 0 {
			t.Errorf("Blocked() reached %d while the only process computed", got)
		}
		if ev := mon.Events(); len(ev) != 0 {
			t.Errorf("monitor recorded %v; the source was computing", ev)
		}
	})

	t.Run("reader node", func(t *testing.T) {
		a, b := newTestNode(t), newTestNode(t)
		ch := a.Net.NewChannel("ab", 64)
		src := &proclib.SliceSource{Values: seq(40), Out: ch.Writer()}
		sink := &computingSink{Pace: 5 * time.Millisecond, In: ch.Reader()}
		procs, err := Import(b, ship(t, mustExport(t, a, b, sink)))
		if err != nil {
			t.Fatal(err)
		}
		imported := b.Net.Channels()[0].Pipe()
		// Sample Blocked() while the link is parked on the full pipe: the
		// sink, taking 5 ms per element, cannot have drained it meanwhile.
		stop := make(chan struct{})
		var linkParks, most int64
		sampled := sample(stop, func() {
			if imported.BlockedWriters() > 0 {
				linkParks++
				most = max(most, b.Net.Blocked())
			}
		})
		for _, p := range procs {
			b.Net.Spawn(p)
		}
		a.Net.Spawn(src)
		waitNet(t, b.Net, "reader node")
		close(stop)
		<-sampled
		waitNet(t, a.Net, "writer node")
		if got := procs[0].(*computingSink).Got; got != 40 {
			t.Fatalf("sink read %d elements, want 40", got)
		}
		if linkParks == 0 {
			t.Fatal("the inbound link never parked on the full imported pipe; the test exercised nothing")
		}
		if got := most; got > 0 {
			t.Errorf("Blocked() read %d while the inbound link was parked and the only process computed", got)
		}
	})
}

// TestLocalMonitorLeavesLinkWaitUndecided: a sink shipped to node b
// waits, between elements, on a channel its inbound link feeds from a
// source computing on node a. Every process on b is then blocked
// reading, which is all a monitor that sees only b can count — but the
// data is on its way. Only a monitor that also sees a can judge, so b's
// own monitor must record nothing and dump nothing.
func TestLocalMonitorLeavesLinkWaitUndecided(t *testing.T) {
	a, b := newTestNode(t), newTestNode(t)
	ch := a.Net.NewChannel("ab", 64)
	src := &computingSource{N: 10, Pace: 20 * time.Millisecond, Out: ch.Writer()}
	sink := &proclib.Collect{In: ch.Reader()}
	procs, err := Import(b, ship(t, mustExport(t, a, b, sink)))
	if err != nil {
		t.Fatal(err)
	}
	mon := deadlock.New(b.Net, time.Hour) // checks on the quiescence wake only
	var dump bytes.Buffer
	mon.DumpTo = &dump
	mon.Start()
	for _, p := range procs {
		b.Net.Spawn(p)
	}
	a.Net.Spawn(src)
	waitNet(t, a.Net, "writer node")
	waitNet(t, b.Net, "reader node")
	mon.Stop()
	if got := len(procs[0].(*proclib.Collect).Values()); got != 10 {
		t.Fatalf("sink collected %d elements, want 10", got)
	}
	if ev := mon.Events(); len(ev) != 0 {
		t.Errorf("monitor recorded %v while the sink waited on its link", ev)
	}
	if dump.Len() != 0 {
		t.Errorf("monitor dumped %d bytes while the sink waited on its link", dump.Len())
	}
}

func mustExport(t *testing.T, from, to *Node, procs ...any) *Parcel {
	t.Helper()
	p, err := Export(from, to.Broker.Addr(), procs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
