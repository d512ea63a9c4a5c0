package core

import (
	"testing"
	"time"
)

// quiescentNet is a network whose one process, a sink, is blocked
// reading an empty channel, with the wakes its park and registrations
// raised drained: the next signal on Quiescent is the event under test.
func quiescentNet(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	in := n.NewChannel("in", 8)
	n.Spawn(&sink{In: in.Reader()})
	t.Cleanup(func() {
		in.Writer().Close()
		n.Wait()
	})
	deadline := time.Now().Add(5 * time.Second)
	for n.Blocked() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("sink never blocked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return n
}

// drainWake empties Quiescent's slot.
func drainWake(n *Network) {
	select {
	case <-n.Quiescent():
	default:
	}
}

// signalled reports whether Quiescent fires within a second.
func signalled(n *Network) bool {
	select {
	case <-n.Quiescent():
		return true
	case <-time.After(time.Second):
		return false
	}
}

// Registering a channel bumps the generation, which voids a deadlock
// pass in progress; with every process blocked, nothing else would wake
// the monitor for the pass that replaces it.
func TestChannelRegistrationSignalsQuiescence(t *testing.T) {
	n := quiescentNet(t)
	drainWake(n)
	n.NewChannel("late", 8)
	if !signalled(n) {
		t.Fatal("registering a channel with every process blocked raised no wake")
	}
}

// A transport link is not a process, so its park is not counted in
// Blocked(); but with every process blocked its park can leave a full
// channel, and its return from the park ends a wake a pass saw pending,
// so each signals as a process's park does — only while
// Blocked() >= Live().
func TestLinkWaitSignalsQuiescence(t *testing.T) {
	for _, write := range []bool{false, true} {
		name := map[bool]string{false: "reader", true: "writer"}[write]
		t.Run(name, func(t *testing.T) {
			n := quiescentNet(t)
			p := n.NewChannel("linked", 8).Pipe()
			p.Link(write)
			drainWake(n)
			done := make(chan error, 1)
			go func() {
				var err error
				if write {
					_, err = p.Write(make([]byte, 9)) // parks on the full buffer
				} else {
					_, err = p.Read(make([]byte, 1)) // parks on the empty buffer
				}
				done <- err
			}()
			if !signalled(n) {
				t.Fatal("a link's park with every process blocked raised no wake")
			}
			if got := n.Blocked(); got != 1 {
				t.Fatalf("Blocked() = %d with a link parked, want 1: a link is not a process", got)
			}
			// Closing the other end wakes the link, and its return
			// ends the wake a pass would see pending.
			drainWake(n)
			if write {
				p.CloseRead()
			} else {
				p.CloseWrite()
			}
			<-done
			if !signalled(n) {
				t.Fatal("a link's return from its park with every process blocked raised no wake")
			}
		})
	}

	t.Run("process running", func(t *testing.T) {
		n := NewNetwork()
		p0 := &running{release: make(chan struct{})}
		n.Spawn(p0)
		defer func() { close(p0.release); n.Wait() }()
		p := n.NewChannel("linked", 8).Pipe()
		p.Link(false)
		drainWake(n)
		done := make(chan error, 1)
		go func() { _, err := p.Read(make([]byte, 1)); done <- err }()
		for p.BlockedReaders() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		select {
		case <-n.Quiescent():
			t.Fatal("a link's park signalled while a process runs")
		default:
		}
		p.CloseWrite()
		<-done
	})
}

// running is a live process that is not blocked in any channel: it
// waits on a plain Go channel until released.
type running struct{ release chan struct{} }

func (r *running) Run(*Env) error {
	<-r.release
	return nil
}
