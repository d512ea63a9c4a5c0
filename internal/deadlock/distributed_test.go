package deadlock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dpn/internal/core"
)

// fakePeer is a scriptable Peer for the unit tests of a monitor that
// watches peers.
type fakePeer struct {
	mu     sync.Mutex
	status NodeStatus
	then   []NodeStatus // the statuses later polls see, one per poll
	err    error
	grown  map[string]int
	growFn func(name string, newCap int) (int, error)
}

func (p *fakePeer) DeadlockStatus() (NodeStatus, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.status
	if len(p.then) > 0 {
		p.status, p.then = p.then[0], p.then[1:]
	}
	return st, p.err
}

func (p *fakePeer) GrowChannel(name string, newCap int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.growFn != nil {
		return p.growFn(name, newCap)
	}
	if p.grown == nil {
		p.grown = map[string]int{}
	}
	p.grown[name] = newCap
	return newCap, nil
}

func (p *fakePeer) set(st NodeStatus) {
	p.mu.Lock()
	p.status = st
	p.mu.Unlock()
}

func (p *fakePeer) setErr(err error) {
	p.mu.Lock()
	p.err = err
	p.mu.Unlock()
}

// watching is a monitor of an empty network that watches peers; Check
// drives it.
func watching(peers ...Peer) *Monitor {
	return New(core.NewNetwork(), time.Hour, peers...)
}

// check runs one pass of m and fails the test unless it ends in want.
func check(t *testing.T, m *Monitor, want Status) {
	t.Helper()
	if st := m.Check(); st != want {
		t.Fatalf("pass ended %v, want %v", st, want)
	}
}

// peerLost counts the StatusPeerLost events among evs.
func peerLost(evs []Event) (n int) {
	for _, ev := range evs {
		if ev.Status == StatusPeerLost {
			n++
		}
	}
	return n
}

func TestCoordinatorTerminated(t *testing.T) {
	check(t, watching(&fakePeer{}, &fakePeer{}), StatusTerminated)
}

func TestCoordinatorRunningWhenUnblocked(t *testing.T) {
	check(t, watching(&fakePeer{status: NodeStatus{Live: 2, Blocked: 0}}), StatusRunning)
}

func TestCoordinatorRunningWhenCountersMove(t *testing.T) {
	p := &fakePeer{status: NodeStatus{Live: 1, Blocked: 1, Generation: 1},
		then: []NodeStatus{{Live: 1, Blocked: 1, Generation: 2}}}
	check(t, watching(p), StatusRunning)
}

func TestCoordinatorRunningWhenWakePending(t *testing.T) {
	p := &fakePeer{status: NodeStatus{Live: 1, Blocked: 1, WakePending: true}}
	check(t, watching(p), StatusRunning)
}

// Parks' rule runs over every node's full channels: the peers' and the
// watched network's own.
func TestCoordinatorGrowsGloballySmallest(t *testing.T) {
	n := core.NewNetwork()
	mid := n.NewChannel("mid", 64)
	n.Spawn(&source{Out: mid.Writer()}) // writes until its channel is full
	t.Cleanup(func() { mid.Reader().Close(); n.Wait() })
	waitFor(t, "the writer to block on a full channel", func() bool { return n.Blocked() == 1 })

	p1 := &fakePeer{status: NodeStatus{Live: 1, Blocked: 1,
		FullChannels: []ChannelRef{{Name: "big", Cap: 1024}}}}
	p2 := &fakePeer{status: NodeStatus{Live: 1, Blocked: 1,
		FullChannels: []ChannelRef{{Name: "small", Cap: 16}}}}
	var events []Event
	m := New(n, time.Hour, p1, p2)
	m.OnEvent = func(e Event) { events = append(events, e) }
	check(t, m, StatusResolved)
	if p2.grown["small"] != 32 {
		t.Fatalf("grown = %v / %v", p1.grown, p2.grown)
	}
	if len(p1.grown) != 0 || mid.Pipe().Cap() != 64 {
		t.Fatalf("grew the wrong channel: %v, mid at %d", p1.grown, mid.Pipe().Cap())
	}
	if m.Resolutions() != 1 || len(events) != 1 || events[0].Channel != "small" {
		t.Fatalf("events = %v", events)
	}

	// With "small" drained, the network's own channel is the smallest.
	p2.set(NodeStatus{Live: 1, Blocked: 1})
	waitFor(t, "the local channel to grow", func() bool { return m.Check() == StatusResolved })
	if got := mid.Pipe().Cap(); got != 128 || len(p1.grown) != 0 {
		t.Fatalf("mid at %d, peers grew %v; want mid at 128", got, p1.grown)
	}
}

func TestCoordinatorTrueDeadlock(t *testing.T) {
	p := &fakePeer{status: NodeStatus{Live: 2, Blocked: 2}}
	var events []Event
	m := watching(p)
	m.OnEvent = func(e Event) { events = append(events, e) }
	check(t, m, StatusTrueDeadlock)
	check(t, m, StatusTrueDeadlock)
	if len(events) != 1 || events[0].Status != StatusTrueDeadlock {
		t.Fatalf("events = %v, want one true deadlock", events)
	}
}

func TestCoordinatorMaxCapacityExhausted(t *testing.T) {
	p := &fakePeer{status: NodeStatus{Live: 1, Blocked: 1,
		FullChannels: []ChannelRef{{Name: "c", Cap: 64}}}}
	m := watching(p)
	m.MaxCapacity = 64 // cannot grow past current capacity
	check(t, m, StatusTrueDeadlock)
	if len(p.grown) != 0 {
		t.Fatalf("grew %v past MaxCapacity", p.grown)
	}
}

func TestCoordinatorSkipsFailingGrowth(t *testing.T) {
	bad := &fakePeer{
		status: NodeStatus{Live: 1, Blocked: 1,
			FullChannels: []ChannelRef{{Name: "cursed", Cap: 8}}},
		growFn: func(string, int) (int, error) { return 0, errors.New("nope") },
	}
	ok := &fakePeer{status: NodeStatus{Live: 1, Blocked: 1,
		FullChannels: []ChannelRef{{Name: "fine", Cap: 16}}}}
	check(t, watching(bad, ok), StatusResolved)
	if ok.grown["fine"] != 32 {
		t.Fatalf("fallback growth missing: %v", ok.grown)
	}
}

func TestCoordinatorPeerErrorSurfaces(t *testing.T) {
	m := watching(&fakePeer{err: errors.New("peer down")})
	check(t, m, StatusPeerLost)
	if evs := m.Events(); len(evs) != 1 || evs[0].Status != StatusPeerLost || evs[0].Channel != "peer[0]" {
		t.Fatalf("events = %v, want peer[0] lost", evs)
	}
}

// A peer that fails a poll is reported lost at once — its client does
// not redial, so every later poll fails too — and once per outage, not
// once per poll.
func TestCoordinatorPeerLostAfterStreak(t *testing.T) {
	ok := &fakePeer{status: NodeStatus{Live: 1, Blocked: 0}}
	down := &fakePeer{err: errors.New("peer down")}
	m := watching(ok, down)
	for range 3 {
		check(t, m, StatusPeerLost)
	}
	if lost := peerLost(m.Events()); lost != 1 {
		t.Fatalf("want exactly one peer-lost event per outage, got %d", lost)
	}

	// Recovery ends the outage and detection resumes normally.
	down.setErr(nil)
	down.set(NodeStatus{Live: 1, Blocked: 0})
	check(t, m, StatusRunning)
	// A fresh outage reports once more.
	down.setErr(errors.New("peer down again"))
	for range 3 {
		check(t, m, StatusPeerLost)
	}
	if lost := peerLost(m.Events()); lost != 2 {
		t.Fatalf("want a second peer-lost event after re-outage, got %d", lost)
	}
}

func TestCoordinatorSkipsQuiescenceWhilePeerUnreachable(t *testing.T) {
	// The reachable peer looks deadlocked (blocked with a full channel),
	// but the monitor must not grow anything while the other peer
	// cannot be polled — partial information could mask a true deadlock.
	blocked := &fakePeer{status: NodeStatus{Live: 1, Blocked: 1,
		FullChannels: []ChannelRef{{Name: "x", Cap: 4}}}}
	down := &fakePeer{err: errors.New("peer down")}
	m := watching(blocked, down)
	for range 4 {
		check(t, m, StatusPeerLost)
	}
	if len(blocked.grown) != 0 {
		t.Fatalf("grew %v while a peer was unreachable", blocked.grown)
	}
	// Once the peer answers, the artificial deadlock resolves.
	down.setErr(nil)
	check(t, m, StatusResolved)
}

func TestCoordinatorBackgroundLoop(t *testing.T) {
	p := &fakePeer{status: NodeStatus{Live: 1, Blocked: 1,
		FullChannels: []ChannelRef{{Name: "x", Cap: 4}}}}
	m := New(core.NewNetwork(), time.Millisecond, p)
	m.Start()
	waitFor(t, "the loop to resolve", func() bool { return m.Resolutions() > 0 })
	// The loop outlives termination; only Stop ends it.
	p.set(NodeStatus{})
	m.Stop()
	m.Stop() // idempotent
}
